(* Brute-force why_UN oracle: walk the whole powerset of the database
   and keep every subset S that supports an unambiguous proof tree with
   support exactly S. The decision per subset goes through the naive
   compressed-DAG enumeration (Proposition 41) restricted to S — no SAT
   solver, no closure sharing — so it is independent of everything the
   batch pipeline does. Exponential: tiny databases only.

   Lives in the hardening library so the fuzzer and the test suites
   (via test/reference_oracle.ml) share one implementation. *)

module D = Datalog

let why_un_powerset program db fact =
  let facts = Array.of_list (Datalog.Database.to_list db) in
  let n = Array.length facts in
  if n > 14 then invalid_arg "why_un_powerset: database too large";
  let members = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let subset = ref Datalog.Fact.Set.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then
        subset := Datalog.Fact.Set.add facts.(i) !subset
    done;
    let s = !subset in
    let supports =
      Provenance.Naive.why_un program (Datalog.Database.of_set s) fact
    in
    if List.exists (Datalog.Fact.Set.equal s) supports then
      members := s :: !members
  done;
  List.sort Datalog.Fact.Set.compare !members

(* The structural semi-naive fixpoint: rules join Atom.t/binding values
   directly over Database indexes (Eval.match_atom/match_body), with no
   interning, no compiled plans and no flat rows. It shares nothing with
   Engine.seminaive beyond the Database store, which makes it the
   engine's differential oracle. *)

(* Evaluate [rule] with body atom [pos] matched against [delta] and the
   other atoms against [full]; call [emit] on each derived head fact.
   The delta atom is matched first (it is the smallest relation), the
   rest greedily by selectivity. *)
let fire_rule ~full ~delta ~pos rule emit =
  let b : D.Eval.binding = Hashtbl.create 16 in
  let body = D.Rule.body rule in
  let finish () = emit (D.Eval.ground b (D.Rule.head rule)) in
  if pos < 0 then D.Eval.match_body full b body finish
  else begin
    let delta_atom = List.nth body pos in
    let rest = List.filteri (fun i _ -> i <> pos) body in
    D.Eval.match_atom delta b delta_atom (fun _ ->
        D.Eval.match_body full b rest finish)
  end

let seminaive ?ranks program db =
  let model = D.Database.of_list (D.Database.to_list db) in
  let record round fact =
    match ranks with
    | Some table ->
      if not (D.Fact.Table.mem table fact) then D.Fact.Table.add table fact round
    | None -> ()
  in
  D.Database.iter (record 0) db;
  (* Round 1: plain evaluation of every rule over the database. *)
  let delta = ref (D.Database.create ()) in
  List.iter
    (fun rule ->
      fire_rule ~full:model ~delta:model ~pos:(-1) rule (fun fact ->
          if not (D.Database.mem model fact) then
            ignore (D.Database.add !delta fact)))
    (D.Program.rules program);
  D.Database.iter
    (fun fact -> if D.Database.add model fact then record 1 fact)
    !delta;
  (* idb positions of each rule body, precomputed. *)
  let idb_positions rule =
    List.mapi (fun i (a : D.Atom.t) -> (i, a.D.Atom.pred)) (D.Rule.body rule)
    |> List.filter_map (fun (i, p) ->
           if D.Program.is_idb program p then Some i else None)
  in
  let rule_positions =
    List.map (fun r -> (r, idb_positions r)) (D.Program.rules program)
  in
  let round = ref 2 in
  while D.Database.size !delta > 0 do
    let next = D.Database.create () in
    List.iter
      (fun (rule, positions) ->
        List.iter
          (fun pos ->
            fire_rule ~full:model ~delta:!delta ~pos rule (fun fact ->
                if
                  (not (D.Database.mem model fact))
                  && not (D.Database.mem next fact)
                then ignore (D.Database.add next fact)))
          positions)
      rule_positions;
    D.Database.iter
      (fun fact -> if D.Database.add model fact then record !round fact)
      next;
    delta := next;
    incr round
  done;
  model
