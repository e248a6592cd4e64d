module Metrics = Util.Metrics

let m_plans = Metrics.counter "eval.join.plans"

type instr = {
  i_atom : int;
  i_pred : Symbol.t;
  i_from_delta : bool;
  i_consts : (int * int) array;
  i_checks : (int * int) array;
  i_binds : (int * int) array;
  i_dups : (int * int) array;
  i_bound_cols : int array;
}

type t = {
  p_rule : Rule.t;
  p_delta : int;
  p_instrs : instr array;
  p_head_pred : Symbol.t;
  p_head : int array;
  p_nregs : int;
}

(* Register allocation: variables get dense ids in the order the chosen
   join order first binds them. *)
type regfile = {
  mutable nregs : int;
  regs : (Symbol.t, int) Hashtbl.t;
}

let reg_of rf v =
  match Hashtbl.find_opt rf.regs v with
  | Some r -> r
  | None ->
    let r = rf.nregs in
    rf.nregs <- r + 1;
    Hashtbl.add rf.regs v r;
    r

let atom_vars (a : Atom.t) = Atom.vars a

(* Connectivity score of a candidate atom against the bound-variable
   set: how many of its distinct variables are already bound; ties go
   to extensional predicates (their relations are fixed-size and
   typically far smaller than a saturating intensional one — the
   static stand-in for the live cardinality estimates [Eval.match_body]
   orders by), then to atoms with more constant columns. *)
let score program bound (a : Atom.t) =
  let bound_vars =
    List.length (List.filter (fun v -> Hashtbl.mem bound v) (atom_vars a))
  in
  let consts =
    Array.fold_left
      (fun n t -> match t with Term.Const _ -> n + 1 | Term.Var _ -> n)
      0 a.Atom.args
  in
  (bound_vars, (if Program.is_edb program a.Atom.pred then 1 else 0), consts)

let order_body program body ~delta =
  let atoms = Array.of_list body in
  let n = Array.length atoms in
  let taken = Array.make n false in
  let bound : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let take i =
    taken.(i) <- true;
    List.iter (fun v -> Hashtbl.replace bound v ()) (atom_vars atoms.(i))
  in
  let order = ref [] in
  if delta >= 0 then begin
    take delta;
    order := [ delta ]
  end;
  for _ = 1 to n - if delta >= 0 then 1 else 0 do
    let best = ref (-1) and best_score = ref (-1, -1, -1) in
    for i = 0 to n - 1 do
      if not taken.(i) then begin
        let s = score program bound atoms.(i) in
        if !best < 0 || s > !best_score then begin
          best := i;
          best_score := s
        end
      end
    done;
    take !best;
    order := !best :: !order
  done;
  List.rev !order

let compile program rule ~delta =
  let body = Rule.body rule in
  let atoms = Array.of_list body in
  let order = order_body program body ~delta in
  let rf = { nregs = 0; regs = Hashtbl.create 16 } in
  let instrs =
    List.map
      (fun i ->
        let a = atoms.(i) in
        let consts = ref [] and checks = ref [] and binds = ref [] in
        let dups = ref [] in
        (* Registers first bound by this very atom: later occurrences of
           the same variable must become [i_dups], not [i_checks] — their
           value is not available until the row is being matched. *)
        let fresh_here : (int, unit) Hashtbl.t = Hashtbl.create 4 in
        Array.iteri
          (fun col t ->
            match t with
            | Term.Const c -> consts := (col, c) :: !consts
            | Term.Var v -> (
              match Hashtbl.find_opt rf.regs v with
              | Some r ->
                if Hashtbl.mem fresh_here r then dups := (col, r) :: !dups
                else checks := (col, r) :: !checks
              | None ->
                let r = reg_of rf v in
                Hashtbl.add fresh_here r ();
                binds := (col, r) :: !binds))
          a.Atom.args;
        let consts = Array.of_list (List.rev !consts)
        and checks = Array.of_list (List.rev !checks)
        and binds = Array.of_list (List.rev !binds)
        and dups = Array.of_list (List.rev !dups) in
        {
          i_atom = i;
          i_pred = a.Atom.pred;
          i_from_delta = i = delta;
          i_consts = consts;
          i_checks = checks;
          i_binds = binds;
          i_dups = dups;
          i_bound_cols =
            Array.append (Array.map fst consts) (Array.map fst checks);
        })
      order
  in
  let head = Rule.head rule in
  let p_head =
    Array.map
      (function
        | Term.Const c -> c
        | Term.Var v -> (
          match Hashtbl.find_opt rf.regs v with
          | Some r -> -r - 1
          | None -> invalid_arg "Plan.compile: unsafe rule"))
      head.Atom.args
  in
  Metrics.incr m_plans;
  {
    p_rule = rule;
    p_delta = delta;
    p_instrs = Array.of_list instrs;
    p_head_pred = head.Atom.pred;
    p_head;
    p_nregs = rf.nregs;
  }

let required_indexes t =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  Array.iter
    (fun ins ->
      Array.iter
        (fun col ->
          let key = (ins.i_pred, ins.i_from_delta, col) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            acc := key :: !acc
          end)
        ins.i_bound_cols)
    t.p_instrs;
  List.rev !acc
