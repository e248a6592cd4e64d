(* Tests for the rule-level profiler ({!Datalog.Profile}).

   The load-bearing contracts (profile.mli):
   - reconciliation: per-rule [firings] and [derived] sum exactly to the
     global [eval.rule_firings] / [eval.facts_derived] counters, and
     per-rule [tuples] to [eval.tuples_matched], on all five paper
     workloads;
   - determinism: the [to_json ~times:false] document is byte-identical
     across repeated runs of the same instance, with the stats sink on
     or off;
   - transparency: on random programs, profiling changes no model fact,
     order, rank or [eval.*] counter, and the per-rule sums reconcile. *)

module D = Datalog
module W = Workloads
module M = Util.Metrics

(* The five paper workloads, sized for unit tests (same shapes as
   test_engine.ml's differential suite). *)
let workloads () =
  [
    ( "transclosure",
      (W.Transclosure.scenario ()).W.Scenario.program,
      W.Transclosure.bitcoin_like ~facts:300 ~seed:11 () );
    ( "csda",
      (W.Csda.scenario ()).W.Scenario.program,
      W.Csda.dataflow_graph ~facts:300 ~seed:12 ~points:0 () );
    ( "andersen",
      (W.Andersen.scenario ()).W.Scenario.program,
      W.Andersen.statements ~facts:300 ~seed:13 ~vars:0 () );
    ( "galen",
      (W.Galen.scenario ()).W.Scenario.program,
      W.Galen.ontology ~facts:200 ~seed:14 ~classes:0 () );
    ( "doctors",
      (List.hd (W.Doctors.scenarios ())).W.Scenario.program,
      W.Doctors.database ~facts:300 ~seed:15 () ) ]

(* Run one profiled fixpoint from a clean slate and return the snapshot. *)
let profiled program db =
  D.Profile.reset ();
  D.Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () -> D.Profile.set_enabled false)
    (fun () -> ignore (D.Eval.seminaive program db));
  D.Profile.snapshot ()

let sum f rules = List.fold_left (fun acc r -> acc + f r) 0 rules

(* --- Reconciliation with the global registry -------------------------- *)

let test_reconciliation () =
  M.set_enabled true;
  List.iter
    (fun (name, program, db) ->
      M.reset ();
      let prof = profiled program db in
      Alcotest.(check int)
        (name ^ ": firings = eval.rule_firings")
        (M.get_counter "eval.rule_firings")
        (sum (fun r -> r.D.Profile.r_firings) prof.D.Profile.rules);
      Alcotest.(check int)
        (name ^ ": derived = eval.facts_derived")
        (M.get_counter "eval.facts_derived")
        (sum (fun r -> r.D.Profile.r_derived) prof.D.Profile.rules);
      Alcotest.(check int)
        (name ^ ": tuples = eval.tuples_matched")
        (M.get_counter "eval.tuples_matched")
        (sum (fun r -> r.D.Profile.r_tuples) prof.D.Profile.rules))
    (workloads ())

(* The per-SCC derived counts partition the same total, and the SCC
   round counts never exceed the global round count. *)
let test_scc_partition () =
  List.iter
    (fun (name, program, db) ->
      let prof = profiled program db in
      Alcotest.(check int)
        (name ^ ": scc derived partition")
        (sum (fun r -> r.D.Profile.r_derived) prof.D.Profile.rules)
        (sum (fun c -> c.D.Profile.c_derived) prof.D.Profile.sccs);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (name ^ ": scc rounds bounded")
            true
            (c.D.Profile.c_rounds <= prof.D.Profile.rounds))
        prof.D.Profile.sccs)
    (workloads ())

(* Internal consistency of each rule row: the per-atom matches sum to
   the rule's tuple total, and derived <= emitted (the difference being
   rejected duplicates). *)
let test_rule_consistency () =
  List.iter
    (fun (name, program, db) ->
      let prof = profiled program db in
      List.iter
        (fun r ->
          Alcotest.(check int)
            (Printf.sprintf "%s rule %d: atoms sum to tuples" name
               r.D.Profile.r_rule.D.Rule.id)
            r.D.Profile.r_tuples
            (Array.fold_left ( + ) 0 r.D.Profile.r_out);
          Alcotest.(check bool)
            (Printf.sprintf "%s rule %d: derived <= emitted" name
               r.D.Profile.r_rule.D.Rule.id)
            true
            (r.D.Profile.r_derived <= r.D.Profile.r_emitted);
          Alcotest.(check bool)
            (Printf.sprintf "%s rule %d: hits <= probes" name
               r.D.Profile.r_rule.D.Rule.id)
            true
            (r.D.Profile.r_hits <= r.D.Profile.r_probes))
        prof.D.Profile.rules)
    (workloads ())

(* --- Determinism across runs ------------------------------------------- *)

let canonical prof =
  M.Json.to_string (D.Profile.to_json ~times:false prof)

let test_repeat_determinism () =
  List.iter
    (fun (name, program, db) ->
      let first = profiled program db in
      let second = profiled program db in
      Alcotest.(check string)
        (name ^ ": repeated profile identical")
        (canonical first) (canonical second))
    (workloads ())

let test_accumulation () =
  let _, program, db = List.hd (workloads ()) in
  let one = profiled program db in
  D.Profile.reset ();
  D.Profile.set_enabled true;
  ignore (D.Eval.seminaive program db);
  ignore (D.Eval.seminaive program db);
  D.Profile.set_enabled false;
  let two = D.Profile.snapshot () in
  Alcotest.(check int) "runs accumulate" 2 two.D.Profile.runs;
  Alcotest.(check int)
    "firings accumulate"
    (2 * sum (fun r -> r.D.Profile.r_firings) one.D.Profile.rules)
    (sum (fun r -> r.D.Profile.r_firings) two.D.Profile.rules)

let test_disabled_is_noop () =
  let _, program, db = List.hd (workloads ()) in
  D.Profile.reset ();
  ignore (D.Eval.seminaive program db);
  let prof = D.Profile.snapshot () in
  Alcotest.(check int) "no runs recorded when disabled" 0 prof.D.Profile.runs;
  Alcotest.(check int)
    "no rules recorded when disabled" 0
    (List.length prof.D.Profile.rules)

(* The tallies count whether or not the stats sink is on: with it off,
   the profile document is the same. *)
let test_stats_off () =
  let was = M.is_enabled () in
  Fun.protect ~finally:(fun () -> M.set_enabled was) @@ fun () ->
  List.iter
    (fun (name, program, db) ->
      M.set_enabled true;
      let on = canonical (profiled program db) in
      M.set_enabled false;
      let off = canonical (profiled program db) in
      Alcotest.(check string) (name ^ ": same profile with stats off") on off)
    (workloads ())

(* --- Profiling changes nothing it observes ------------------------------ *)

(* One evaluation with the stats sink on and the profile bit [profile]:
   the model's facts in order, the ranks, every [eval.*] counter and
   the profile. *)
let observe ~profile program db =
  let was = M.is_enabled () in
  M.set_enabled true;
  M.reset ();
  D.Profile.reset ();
  D.Profile.set_enabled profile;
  let ranks = D.Fact.Table.create 64 in
  let model =
    Fun.protect
      ~finally:(fun () ->
        D.Profile.set_enabled false;
        M.set_enabled was)
      (fun () -> D.Engine.seminaive ~ranks program db)
  in
  let facts = ref [] in
  D.Database.iter (fun f -> facts := D.Fact.to_string f :: !facts) model;
  let ranks =
    D.Fact.Table.fold (fun f r acc -> (D.Fact.to_string f, r) :: acc) ranks []
    |> List.sort compare
  in
  let counters =
    List.filter_map
      (fun (name, e) ->
        match e with
        | M.Counter_value n when String.starts_with ~prefix:"eval." name ->
          Some (name, n)
        | _ -> None)
      (M.snapshot ())
  in
  (List.rev !facts, ranks, counters, D.Profile.snapshot ())

let prop_profile_transparent =
  QCheck.Test.make ~count:60
    ~name:"random programs: profiling changes no fact, rank or counter"
    Test_engine.arb_program_db (fun t ->
      (* A fresh database each time: the engine leaves the column
         indexes it built on the database's relations, so a second
         evaluation over the same one counts fewer index builds. *)
      let program = W.Randprog.program t in
      let facts0, ranks0, counters0, _ =
        observe ~profile:false program (W.Randprog.database t)
      in
      let facts1, ranks1, counters1, prof =
        observe ~profile:true program (W.Randprog.database t)
      in
      let counter name = Option.value ~default:0 (List.assoc_opt name counters1) in
      let reconcile field total =
        let s = sum field prof.D.Profile.rules in
        if s <> counter total then
          QCheck.Test.fail_reportf "per-rule sum %d <> %s = %d" s total
            (counter total)
      in
      if facts0 <> facts1 then QCheck.Test.fail_report "model facts or order differ";
      if ranks0 <> ranks1 then QCheck.Test.fail_report "ranks differ";
      if counters0 <> counters1 then begin
        let show cs =
          String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)
        in
        QCheck.Test.fail_reportf "eval.* counters differ:\n off: %s\n on:  %s"
          (show counters0) (show counters1)
      end;
      reconcile (fun r -> r.D.Profile.r_firings) "eval.rule_firings";
      reconcile (fun r -> r.D.Profile.r_derived) "eval.facts_derived";
      reconcile (fun r -> r.D.Profile.r_tuples) "eval.tuples_matched";
      true)

let suite =
  ( "profile",
    [
      Alcotest.test_case "global reconciliation" `Quick test_reconciliation;
      Alcotest.test_case "scc partition" `Quick test_scc_partition;
      Alcotest.test_case "per-rule consistency" `Quick test_rule_consistency;
      Alcotest.test_case "repeat determinism" `Quick test_repeat_determinism;
      Alcotest.test_case "runs accumulate" `Quick test_accumulation;
      Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
      Alcotest.test_case "stats off, same profile" `Quick test_stats_off;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_profile_transparent ] )
