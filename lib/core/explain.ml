open Datalog

type query = {
  program : Program.t;
  answer_pred : Symbol.t;
}

let query program pred_name =
  let pred = Symbol.intern pred_name in
  if not (Program.is_idb program pred) then
    invalid_arg
      (Printf.sprintf "Explain.query: %s is not an intensional predicate" pred_name);
  { program; answer_pred = pred }

let answers q db = Eval.answers q.program q.answer_pred db

let goal q tuple =
  let arity = Program.arity q.program q.answer_pred in
  if List.length tuple <> arity then
    invalid_arg
      (Printf.sprintf "Explain.goal: expected %d constants, got %d" arity
         (List.length tuple));
  Fact.make q.answer_pred
    (Array.of_list (List.map Symbol.intern tuple))

type explanation = {
  members : Fact.Set.t list;
  total : [ `Exactly of int | `At_least of int ];
}

let explain_of_closure ?(limit = 100) closure =
  let enumeration = Enumerate.of_closure closure in
  let members = Enumerate.to_list ~limit enumeration in
  let total =
    match Enumerate.next enumeration with
    | None -> `Exactly (List.length members)
    | Some _ -> `At_least (List.length members + 1)
  in
  { members; total }

let explain ?limit q db fact =
  explain_of_closure ?limit (Closure.build q.program db fact)

let why_provenance ~variant q db fact candidate =
  match variant with
  | `Any -> Membership.why q.program db fact candidate
  | `Unambiguous -> Membership.why_un q.program db fact candidate
  | `Non_recursive -> Membership.why_nr q.program db fact candidate
  | `Minimal_depth -> Membership.why_md q.program db fact candidate

let proof_tree q db fact = Trace.proof_tree (Trace.record q.program db) fact

let pp_explanation ppf e =
  let count =
    match e.total with
    | `Exactly n -> Printf.sprintf "%d member(s)" n
    | `At_least n -> Printf.sprintf "at least %d members (truncated)" n
  in
  Format.fprintf ppf "@[<v>why-provenance (unambiguous proof trees): %s@," count;
  List.iteri
    (fun i member -> Format.fprintf ppf "  %2d. %a@," (i + 1) Fact.pp_set member)
    e.members;
  Format.fprintf ppf "@]"
