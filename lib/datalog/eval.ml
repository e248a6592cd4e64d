type binding = (Symbol.t, Symbol.t) Hashtbl.t

(* Observability (docs/OBSERVABILITY.md, "Datalog evaluation"). The
   tuple/firing counters are engine-wide: they also tick when the
   closure layer replays rules backwards through [derivations]. *)
module Metrics = Util.Metrics
module Tracing = Util.Tracing

let m_seminaive_time = Metrics.timer "eval.seminaive"
let m_runs = Metrics.counter "eval.seminaive.runs"
let m_rounds = Metrics.counter "eval.rounds"
let m_derived = Metrics.counter "eval.facts_derived"
let m_model_facts = Metrics.counter "eval.model_facts"
let m_firings = Metrics.counter "eval.rule_firings"
let m_tuples = Metrics.counter "eval.tuples_matched"
let m_delta_size = Metrics.histogram "eval.delta_size"

(* Per-predicate delta totals, e.g. "eval.delta.tc". Only materialized
   when recording is on: the name allocation is not free. *)
let record_delta db =
  if Metrics.is_enabled () then begin
    Metrics.observe_int m_delta_size (Database.size db);
    List.iter
      (fun pred ->
        Metrics.add
          (Metrics.counter ("eval.delta." ^ Symbol.name pred))
          (Database.count_pred db pred))
      (Database.preds db)
  end

(* One counter sample per semi-naive round: the shrinking (or not)
   delta is the most telling single series of a fixpoint run. *)
let trace_delta db =
  if Tracing.is_enabled () then
    Tracing.counter "eval.delta" [ ("facts", float_of_int (Database.size db)) ]

(* Wraps one semi-naive round; the round number and resulting delta
   size are attached to the span, so a Perfetto timeline shows which
   round the fixpoint spent its time in. Arg allocation is guarded. *)
let round_span round f =
  if not (Tracing.is_enabled ()) then f ()
  else
    Tracing.with_span
      ~args:[ ("round", Metrics.Json.Num (float_of_int round)) ]
      "eval.round" f

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

(* Evaluate [rule] with body atom [pos] matched against [delta] and the
   other atoms against [full]; call [emit] on each derived head fact.
   The delta atom is matched first (it is the smallest relation), the
   rest greedily by selectivity. *)
let fire_rule ~full ~delta ~pos rule emit =
  Metrics.incr m_firings;
  let b : binding = Hashtbl.create 16 in
  let body = Rule.body rule in
  let finish () = emit (ground b (Rule.head rule)) in
  if pos < 0 then match_body full b body finish
  else begin
    let delta_atom = List.nth body pos in
    let rest = List.filteri (fun i _ -> i <> pos) body in
    match_atom delta b delta_atom (fun _ -> match_body full b rest finish)
  end

let seminaive_structural ?ranks program db =
  Tracing.with_span "eval.seminaive" @@ fun () ->
  Metrics.time m_seminaive_time @@ fun () ->
  Metrics.incr m_runs;
  let model = Database.of_list (Database.to_list db) in
  let record round fact =
    match ranks with
    | Some table -> if not (Fact.Table.mem table fact) then Fact.Table.add table fact round
    | None -> ()
  in
  Database.iter (record 0) db;
  (* Round 1: plain evaluation of every rule over the database. *)
  let delta = ref (Database.create ()) in
  round_span 1 (fun () ->
      List.iter
        (fun rule ->
          fire_rule ~full:model ~delta:model ~pos:(-1) rule (fun fact ->
              if not (Database.mem model fact) then
                ignore (Database.add !delta fact)))
        (Program.rules program));
  Metrics.incr m_rounds;
  record_delta !delta;
  trace_delta !delta;
  Database.iter
    (fun fact ->
      if Database.add model fact then begin
        Metrics.incr m_derived;
        record 1 fact
      end)
    !delta;
  (* idb positions of each rule body, precomputed. *)
  let idb_positions rule =
    List.filteri
      (fun _ _ -> true)
      (List.mapi (fun i (a : Atom.t) -> (i, a.Atom.pred)) (Rule.body rule))
    |> List.filter_map (fun (i, p) -> if Program.is_idb program p then Some i else None)
  in
  let rule_positions =
    List.map (fun r -> (r, idb_positions r)) (Program.rules program)
  in
  let round = ref 2 in
  while Database.size !delta > 0 do
    let next = Database.create () in
    round_span !round (fun () ->
        List.iter
          (fun (rule, positions) ->
            List.iter
              (fun pos ->
                fire_rule ~full:model ~delta:!delta ~pos rule (fun fact ->
                    if
                      (not (Database.mem model fact))
                      && not (Database.mem next fact)
                    then ignore (Database.add next fact)))
              positions)
          rule_positions);
    Metrics.incr m_rounds;
    record_delta next;
    trace_delta next;
    Database.iter
      (fun fact ->
        if Database.add model fact then begin
          Metrics.incr m_derived;
          record !round fact
        end)
      next;
    delta := next;
    incr round
  done;
  Metrics.add m_model_facts (Database.size model);
  model

(* The production fixpoint: the interned flat-tuple engine. The
   structural implementation above stays as its differential oracle. *)
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
