type binding = (Symbol.t, Symbol.t) Hashtbl.t

(* Observability (docs/OBSERVABILITY.md, "Downward closure"). These
   structural joins are the closure layer's backward ones, reached
   through [derivations], so their tuples tick a counter of their own:
   [eval.tuples_matched] counts the fixpoint's joins only. *)
module Metrics = Util.Metrics

let m_tuples = Metrics.counter "closure.tuples_matched"

let bound_positions (b : binding) (atom : Atom.t) =
  let bound = ref [] in
  Array.iteri
    (fun i t ->
      match t with
      | Term.Const c -> bound := (i, c) :: !bound
      | Term.Var v -> (
        match Hashtbl.find_opt b v with
        | Some c -> bound := (i, c) :: !bound
        | None -> ()))
    atom.Atom.args;
  !bound

let match_atom db (b : binding) (atom : Atom.t) k =
  let bound = bound_positions b atom in
  Database.iter_matching db atom.Atom.pred ~arity:(Atom.arity atom) bound (fun fact ->
      (* Bind the free variables of [atom] against [fact], checking
         consistency for repeated variables; undo on the way out. *)
      let args = Fact.args fact in
      let newly = ref [] in
      let ok = ref true in
      (try
         Array.iteri
           (fun i t ->
             match t with
             | Term.Const _ -> ()
             | Term.Var v -> (
               match Hashtbl.find_opt b v with
               | Some c -> if not (Symbol.equal c args.(i)) then raise Exit
               | None ->
                 Hashtbl.add b v args.(i);
                 newly := v :: !newly))
           atom.Atom.args
       with Exit -> ok := false);
      if !ok then begin
        Metrics.incr m_tuples;
        k fact
      end;
      List.iter (Hashtbl.remove b) !newly)

(* Greedy join ordering: always match the atom with the fewest candidate
   facts under the current binding. This is what makes backward
   rule-instance extraction tractable on chain-shaped programs. *)
let rec match_body db b atoms k =
  match atoms with
  | [] -> k ()
  | [ atom ] -> match_atom db b atom (fun _ -> k ())
  | _ ->
    let best =
      List.fold_left
        (fun acc atom ->
          let bound = bound_positions b atom in
          let cost = Database.estimate db atom.Atom.pred ~arity:(Atom.arity atom) bound in
          match acc with
          | Some (_, best_cost) when best_cost <= cost -> acc
          | _ -> Some (atom, cost))
        None atoms
    in
    (match best with
    | None -> k ()
    | Some (atom, _) ->
      let rest = List.filter (fun a -> not (a == atom)) atoms in
      match_atom db b atom (fun _ -> match_body db b rest k))

let ground b (atom : Atom.t) =
  let const_of = function
    | Term.Const c -> c
    | Term.Var v -> (
      match Hashtbl.find_opt b v with
      | Some c -> c
      | None -> invalid_arg "Eval.ground: unbound variable")
  in
  Fact.make atom.Atom.pred (Array.map const_of atom.Atom.args)

(* The fixpoint: the interned flat-tuple engine. *)
let seminaive ?ranks program db = Engine.seminaive ?ranks program db

let holds program db fact = Database.mem (seminaive program db) fact

let answers program pred db =
  let model = seminaive program db in
  let acc = ref [] in
  Database.iter_pred model pred (fun f -> acc := f :: !acc);
  List.sort Fact.compare !acc

let derivations program model fact =
  let results : (int * Fact.t list, unit) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun rule ->
      let head = Rule.head rule in
      if Symbol.equal head.Atom.pred (Fact.pred fact)
         && Atom.arity head = Fact.arity fact
      then begin
        let b : binding = Hashtbl.create 16 in
        (* Unify head with [fact]. *)
        let ok = ref true in
        let newly = ref [] in
        (try
           Array.iteri
             (fun i t ->
               let c = (Fact.args fact).(i) in
               match t with
               | Term.Const c' -> if not (Symbol.equal c c') then raise Exit
               | Term.Var v -> (
                 match Hashtbl.find_opt b v with
                 | Some c' -> if not (Symbol.equal c c') then raise Exit
                 | None ->
                   Hashtbl.add b v c;
                   newly := v :: !newly))
             head.Atom.args
         with Exit -> ok := false);
        if !ok then
          match_body model b (Rule.body rule) (fun () ->
              let body_facts = List.map (ground b) (Rule.body rule) in
              let key = (rule.Rule.id, body_facts) in
              if not (Hashtbl.mem results key) then begin
                Hashtbl.add results key ();
                order := (rule, body_facts) :: !order
              end)
      end)
    (Program.rules program);
  List.rev !order
