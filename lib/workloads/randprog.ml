(* Random positive Datalog programs over a small fixed schema.

   Extracted from the engine differential test so that the qcheck
   suites and the hardening fuzzer draw from one distribution and share
   one shrinker. The schema is deliberately tiny — two EDB predicates,
   three IDB predicates, six constants, four variables — which makes
   collisions (and therefore recursion, self-joins and diamond
   derivations) likely even in programs of a handful of rules. *)

module D = Datalog

let consts = Array.init 6 (fun i -> "c" ^ string_of_int i)
let vars = [| "X"; "Y"; "Z"; "W" |]

(* (name, arity, is_edb) — index 5 is the out-of-schema "ghost"
   predicate that databases may mention and engines must pass through. *)
let preds =
  [| ("e", 2, true); ("f", 1, true); ("p", 2, false); ("q", 1, false);
     ("s", 2, false) |]

type t = {
  rules : D.Rule.t list;
  facts : D.Fact.t list;
}

let gen_const rng = consts.(Util.Rng.int rng (Array.length consts))

let gen_term rng =
  if Util.Rng.int rng 10 < 7 then
    D.Term.var vars.(Util.Rng.int rng (Array.length vars))
  else D.Term.const (gen_const rng)

let gen_atom rng =
  let name, arity, _ = preds.(Util.Rng.int rng (Array.length preds)) in
  D.Atom.make (D.Symbol.intern name)
    (Array.init arity (fun _ -> gen_term rng))

let gen_rule rng =
  let body = List.init (Util.Rng.int_in rng 1 3) (fun _ -> gen_atom rng) in
  let body_vars =
    List.concat_map D.Atom.vars body |> List.sort_uniq D.Symbol.compare
  in
  let gen_head_term () =
    match body_vars with
    | [] -> D.Term.const (gen_const rng)
    | vs ->
      let vs = Array.of_list vs in
      if Util.Rng.int rng 9 < 8 then
        D.Term.var (D.Symbol.to_string (Util.Rng.choose rng vs))
      else D.Term.const (gen_const rng)
  in
  let name, arity, _ = preds.(2 + Util.Rng.int rng 3) (* an IDB head *) in
  D.Rule.make
    (D.Atom.make (D.Symbol.intern name)
       (Array.init arity (fun _ -> gen_head_term ())))
    body

let gen_fact rng =
  (* Mostly EDB facts, some IDB facts (databases may mention IDB
     predicates), and the odd fact of a predicate outside the program,
     which must pass through every engine untouched. *)
  let name, arity =
    match Util.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> ("e", 2)
    | 6 | 7 -> ("f", 1)
    | 8 -> ("p", 2)
    | _ -> ("ghost", 1)
  in
  D.Fact.of_strings name (List.init arity (fun _ -> gen_const rng))

let generate ?(min_rules = 2) ?(max_rules = 6) ?(min_facts = 4)
    ?(max_facts = 30) rng =
  let rules =
    List.init (Util.Rng.int_in rng min_rules max_rules) (fun _ -> gen_rule rng)
  in
  let facts =
    List.init (Util.Rng.int_in rng min_facts max_facts) (fun _ -> gen_fact rng)
  in
  { rules; facts }

let program t = D.Program.make t.rules
let database t = D.Database.of_list t.facts

let extensional t =
  let program = program t in
  { t with facts = List.filter (fun f -> not (D.Program.is_idb program (D.Fact.pred f))) t.facts }

let to_string t =
  String.concat ""
    (List.map (fun r -> D.Rule.to_string r ^ "\n") t.rules
    @ List.map (fun f -> D.Fact.to_string f ^ ".\n") t.facts)

let of_string src =
  let clauses = D.Parser.parse_string src in
  let rules, facts = D.Parser.split clauses in
  { rules; facts }

(* Greedy delta-debugging: repeatedly try deleting one rule or one
   fact; keep any deletion under which [still_failing] still holds;
   stop at a fixpoint (a 1-minimal failing instance). [still_failing]
   must be true of the input. *)
let shrink ~still_failing t =
  let drop_nth n l = List.filteri (fun i _ -> i <> n) l in
  let rec pass t =
    let try_drop mk n =
      let t' = mk n in
      if still_failing t' then Some t' else None
    in
    let rec first f n stop =
      if n >= stop then None
      else match f n with Some t' -> Some t' | None -> first f (n + 1) stop
    in
    match
      first (try_drop (fun n -> { t with rules = drop_nth n t.rules }))
        0 (List.length t.rules)
    with
    | Some t' -> pass t'
    | None -> (
      match
        first (try_drop (fun n -> { t with facts = drop_nth n t.facts }))
          0 (List.length t.facts)
      with
      | Some t' -> pass t'
      | None -> t)
  in
  pass t
