(* Tests for the observability layer (Util.Metrics): counter/timer/
   histogram semantics, the timers fed by Util.Tracing spans, reset,
   the JSON renderer and parser, and a pipeline smoke test asserting
   that a full whyprov run touches at least one metric in every layer
   (docs/OBSERVABILITY.md). *)

module M = Util.Metrics
module T = Util.Tracing
module D = Datalog
module P = Provenance

(* Every test runs with a clean, enabled registry and leaves the
   registry disabled and zeroed, so test order never matters. *)
let with_metrics f () =
  M.reset ();
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled false;
      M.reset ())
    f

(* --- Counters ----------------------------------------------------------- *)

let test_counter_basics () =
  let c = M.counter "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (M.counter_value c);
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "incr + add" 5 (M.counter_value c);
  Alcotest.(check int) "lookup by name" 5 (M.get_counter "test.counter");
  let c' = M.counter "test.counter" in
  M.incr c';
  Alcotest.(check int) "creation is idempotent" 6 (M.counter_value c)

let test_disabled_is_noop () =
  let c = M.counter "test.disabled" in
  M.set_enabled false;
  M.incr c;
  M.add c 10;
  M.observe_int (M.histogram "test.disabled.hist") 5;
  let r = T.with_span "test.disabled.timer" (fun () -> 17) in
  M.set_enabled true;
  Alcotest.(check int) "span still runs f" 17 r;
  Alcotest.(check int) "counter untouched" 0 (M.counter_value c);
  Alcotest.(check int) "timer untouched" 0
    (M.get_timer_count "test.disabled.timer");
  Alcotest.(check int) "histogram untouched" 0
    (M.get_histogram_count "test.disabled.hist")

let test_kind_clash () =
  let _ = M.counter "test.clash" in
  (match M.histogram "test.clash" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering a name as another kind must raise");
  match T.with_span "test.clash" ignore with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a span named like a counter must raise"

(* --- Timers (fed by spans) ---------------------------------------------- *)

let find_timer name =
  match List.assoc_opt name (M.snapshot ()) with
  | Some (M.Timer_value { count; total; self; max }) -> (count, total, self, max)
  | _ -> Alcotest.fail (name ^ " missing from snapshot")

let test_timer_nesting () =
  let spin () =
    (* Burn a little real wall time so self/total are distinguishable. *)
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.002 do ignore (Sys.opaque_identity ()) done
  in
  T.with_span "test.outer" (fun () ->
      spin ();
      T.with_span "test.inner" spin;
      T.with_span "test.inner" spin);
  let o_count, o_total, o_self, _ = find_timer "test.outer" in
  let i_count, i_total, _, i_max = find_timer "test.inner" in
  Alcotest.(check int) "outer spans" 1 o_count;
  Alcotest.(check int) "inner spans" 2 i_count;
  Alcotest.(check bool) "outer total covers inner" true (o_total >= i_total);
  Alcotest.(check bool) "inner time excluded from outer self" true
    (o_self <= o_total -. i_total +. 1e-4);
  Alcotest.(check bool) "max <= total" true (i_max <= i_total +. 1e-9)

let test_timer_exception_safe () =
  (match T.with_span "test.raises" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  Alcotest.(check int) "raising span still recorded" 1
    (M.get_timer_count "test.raises");
  (* The span stack must be clean: a fresh top-level span records a
     sensible self time rather than inheriting the aborted frame. *)
  T.with_span "test.raises" ignore;
  Alcotest.(check int) "stack recovered" 2 (M.get_timer_count "test.raises");
  let _, total, self, _ = find_timer "test.raises" in
  Alcotest.(check bool) "no stale parent" true (self = total)

(* --- Histograms --------------------------------------------------------- *)

let find_histogram name =
  match List.assoc_opt name (M.snapshot ()) with
  | Some (M.Histogram_value { count; sum; min; max; buckets }) ->
    (count, sum, min, max, buckets)
  | _ -> Alcotest.fail (name ^ " missing from snapshot")

let test_histogram_buckets () =
  let h = M.histogram "test.hist" in
  List.iter (M.observe_int h) [ -3; 0; 1; 2; 3; 1024 ];
  let count, sum, min_v, max_v, buckets = find_histogram "test.hist" in
  Alcotest.(check int) "count" 6 count;
  Alcotest.(check (float 1e-9)) "sum" 1027.0 sum;
  Alcotest.(check (float 1e-9)) "min" (-3.0) min_v;
  Alcotest.(check (float 1e-9)) "max" 1024.0 max_v;
  let bucket le =
    match List.assoc_opt le buckets with
    | Some n -> n
    | None -> Alcotest.fail (Printf.sprintf "no bucket le=%g" le)
  in
  (* v <= 2^i picks the first such bucket; non-positive lands in 2^0. *)
  Alcotest.(check int) "le=1 gets -3, 0, 1" 3 (bucket 1.0);
  Alcotest.(check int) "le=2 gets 2" 1 (bucket 2.0);
  Alcotest.(check int) "le=4 gets 3" 1 (bucket 4.0);
  Alcotest.(check int) "le=1024 gets 1024" 1 (bucket 1024.0)

let test_histogram_percentiles () =
  (* percentile_of_buckets reports the upper bound of the bucket holding
     the rank-ceil(q*n) observation — no interpolation. *)
  let buckets = [ (1.0, 5); (2.0, 3); (4.0, 1); (8.0, 1) ] in
  Alcotest.(check (float 1e-9)) "p50 in first bucket" 1.0
    (M.percentile_of_buckets buckets 0.5);
  Alcotest.(check (float 1e-9)) "p90 lands on rank 9" 4.0
    (M.percentile_of_buckets buckets 0.9);
  Alcotest.(check (float 1e-9)) "p99 is the max bucket" 8.0
    (M.percentile_of_buckets buckets 0.99);
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0
    (M.percentile_of_buckets [] 0.5);
  Alcotest.(check (float 1e-9)) "single bucket" 16.0
    (M.percentile_of_buckets [ (16.0, 1) ] 0.99);
  (* And the JSON snapshot embeds the three quantiles. *)
  let h = M.histogram "test.pct" in
  List.iter (M.observe_int h) [ 1; 1; 1; 1; 1; 1; 1; 1; 1; 100 ];
  let json = M.Json.parse (M.to_json_string ()) in
  match M.Json.member "histograms" json with
  | Some (M.Json.Obj hists) -> (
    match List.assoc_opt "test.pct" hists with
    | Some hist ->
      let quantile name =
        match M.Json.member name hist with
        | Some (M.Json.Num v) -> v
        | _ -> Alcotest.failf "histogram JSON missing %s" name
      in
      Alcotest.(check (float 1e-9)) "json p50" 1.0 (quantile "p50");
      Alcotest.(check (float 1e-9)) "json p90" 1.0 (quantile "p90");
      (* 100 lands in the le=128 power-of-two bucket. *)
      Alcotest.(check (float 1e-9)) "json p99" 128.0 (quantile "p99")
    | None -> Alcotest.fail "test.pct missing from histograms")
  | _ -> Alcotest.fail "snapshot must have a histograms section"

(* --- Registry ----------------------------------------------------------- *)

let test_reset_and_omission () =
  let c = M.counter "test.reset.c" in
  let _ = M.counter "test.reset.untouched" in
  M.incr c;
  let names = List.map fst (M.snapshot ()) in
  Alcotest.(check bool) "touched instrument listed" true
    (List.mem "test.reset.c" names);
  Alcotest.(check bool) "untouched instrument omitted" false
    (List.mem "test.reset.untouched" names);
  Alcotest.(check bool) "snapshot sorted by name" true
    (List.sort compare names = names);
  M.reset ();
  Alcotest.(check int) "reset zeroes values" 0 (M.counter_value c);
  Alcotest.(check (list string)) "reset empties snapshot" []
    (List.map fst (M.snapshot ()))

(* --- JSON --------------------------------------------------------------- *)

let test_json_parse () =
  let open M.Json in
  Alcotest.(check bool) "scalars" true
    (equal
       (parse {| {"a": [1, -2.5, true, false, null], "b\n": "x\"y"} |})
       (Obj
          [
            ("a", List [ Num 1.0; Num (-2.5); Bool true; Bool false; Null ]);
            ("b\n", Str "x\"y");
          ]));
  (match parse "{broken" with
  | exception Parse_error _ -> ()
  | _ -> Alcotest.fail "malformed input must raise");
  match member "missing" (parse {| {"k": 1} |}) with
  | None -> ()
  | Some _ -> Alcotest.fail "member of absent key must be None"

let test_json_roundtrip () =
  M.incr (M.counter "test.rt.counter");
  T.with_span "test.rt.timer" ignore;
  M.observe_int (M.histogram "test.rt.hist") 7;
  let json = M.snapshot_to_json () in
  let reparsed = M.Json.parse (M.to_json_string ()) in
  Alcotest.(check bool) "print/parse round-trip" true
    (M.Json.equal json reparsed);
  (match M.Json.member "schema" reparsed with
  | Some (M.Json.Str v) ->
    Alcotest.(check string) "schema version" M.schema_version v
  | _ -> Alcotest.fail "snapshot must carry a schema field");
  let section name =
    match M.Json.member name reparsed with
    | Some (M.Json.Obj fields) -> List.map fst fields
    | _ -> Alcotest.fail ("snapshot must have object section " ^ name)
  in
  Alcotest.(check bool) "counter serialized" true
    (List.mem "test.rt.counter" (section "counters"));
  Alcotest.(check bool) "timer serialized" true
    (List.mem "test.rt.timer" (section "timers"));
  Alcotest.(check bool) "histogram serialized" true
    (List.mem "test.rt.hist" (section "histograms"))

(* --- Pipeline smoke test ------------------------------------------------ *)

(* The README quickstart program (examples/reach.dl), inlined so the
   test does not depend on the source tree layout under dune's
   sandbox. Driving Explain.explain runs every layer: semi-naive
   evaluation, downward closure, CNF encoding, SAT enumeration. *)
let reach_program =
  fst
    (D.Parser.program_of_string
       {|
  tc(X,Y) :- edge(X,Y).
  tc(X,Z) :- tc(X,Y), edge(Y,Z).
|})

let reach_db =
  D.Database.of_list
    (List.map
       (fun (x, y) -> D.Fact.of_strings "edge" [ x; y ])
       [ ("a", "b"); ("b", "c"); ("a", "c") ])

let test_pipeline_smoke () =
  let q = P.Explain.query reach_program "tc" in
  let e = P.Explain.explain q reach_db (P.Explain.goal q [ "a"; "c" ]) in
  Alcotest.(check int) "tc(a,c) has two why-members" 2
    (List.length e.P.Explain.members);
  (* One non-zero metric per layer (the ISSUE acceptance criterion). *)
  let layers =
    [
      ("datalog eval", M.get_counter "eval.rule_firings");
      ("datalog eval timer", M.get_timer_count "eval.seminaive");
      ("closure", M.get_counter "closure.rule_instances");
      ("encoder", M.get_counter "encode.clauses.graph");
      ("sat", M.get_counter "sat.clauses_added");
      ("sat solve timer", M.get_timer_count "sat.solve");
      ("enumerator", M.get_counter "enum.members");
    ]
  in
  List.iter
    (fun (layer, v) ->
      Alcotest.(check bool) (layer ^ " recorded activity") true (v > 0))
    layers;
  (* And the snapshot serializes cleanly after a real run. *)
  ignore (M.Json.parse (M.to_json_string ()))

let suite =
  ( "metrics",
    [
      Alcotest.test_case "counter basics" `Quick (with_metrics test_counter_basics);
      Alcotest.test_case "disabled is a no-op" `Quick (with_metrics test_disabled_is_noop);
      Alcotest.test_case "kind clash raises" `Quick (with_metrics test_kind_clash);
      Alcotest.test_case "timer nesting" `Quick (with_metrics test_timer_nesting);
      Alcotest.test_case "timer exception safety" `Quick
        (with_metrics test_timer_exception_safe);
      Alcotest.test_case "histogram buckets" `Quick (with_metrics test_histogram_buckets);
      Alcotest.test_case "histogram percentiles" `Quick
        (with_metrics test_histogram_percentiles);
      Alcotest.test_case "reset and omission" `Quick (with_metrics test_reset_and_omission);
      Alcotest.test_case "json parse" `Quick (with_metrics test_json_parse);
      Alcotest.test_case "json round-trip" `Quick (with_metrics test_json_roundtrip);
      Alcotest.test_case "pipeline smoke" `Quick (with_metrics test_pipeline_smoke);
    ] )
