(* Tests for the rule-level profiler ({!Datalog.Profile}).

   The load-bearing contracts (profile.mli):
   - reconciliation: per-rule [firings] and [derived] sum exactly to the
     global [eval.rule_firings] / [eval.facts_derived] counters, and
     per-rule [tuples] to [eval.tuples_matched], on all five paper
     workloads;
   - determinism: the [to_json ~times:false] document is byte-identical
     across repeated runs of the same instance. *)

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
               r.D.Profile.r_id)
            r.D.Profile.r_tuples
            (Array.fold_left
               (fun acc a -> acc + a.D.Profile.a_out)
               0 r.D.Profile.r_atoms);
          Alcotest.(check bool)
            (Printf.sprintf "%s rule %d: derived <= emitted" name
               r.D.Profile.r_id)
            true
            (r.D.Profile.r_derived <= r.D.Profile.r_emitted);
          Alcotest.(check bool)
            (Printf.sprintf "%s rule %d: hits <= probes" name
               r.D.Profile.r_id)
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

let suite =
  ( "profile",
    [
      Alcotest.test_case "global reconciliation" `Quick test_reconciliation;
      Alcotest.test_case "scc partition" `Quick test_scc_partition;
      Alcotest.test_case "per-rule consistency" `Quick test_rule_consistency;
      Alcotest.test_case "repeat determinism" `Quick test_repeat_determinism;
      Alcotest.test_case "runs accumulate" `Quick test_accumulation;
      Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
    ] )
