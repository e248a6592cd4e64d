(* Structured event tracing (Util.Tracing): recording semantics, the
   Chrome trace-event export round-tripped through the built-in JSON
   parser, ring-buffer overflow, and — via qcheck — concurrent emission
   from the batch worker pool (no lost events, per-domain span stacks
   never interleave). *)

module T = Util.Tracing
module M = Util.Metrics
module D = Datalog
module P = Provenance

(* Recording leaves global state behind (the enable flag, buffered
   events); every test starts and ends clean. *)
let with_tracing f () =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

(* --- Recording semantics ------------------------------------------------ *)

let test_disabled_is_noop () =
  T.set_enabled false;
  T.with_span "off.span" (fun () -> T.instant "off.instant");
  T.counter "off.counter" [ ("v", 1.0) ];
  T.set_enabled true;
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length (T.events ()))

let test_basic_recording () =
  T.with_span
    ~args:[ ("round", M.Json.Num 1.0) ]
    "t.outer"
    (fun () ->
      T.instant "t.marker";
      T.counter "t.counter" [ ("a", 2.0); ("b", 3.0) ]);
  match T.events () with
  | [ b; i; c; e ] ->
    Alcotest.(check bool) "begin phase" true (b.T.phase = T.Begin);
    Alcotest.(check string) "begin name" "t.outer" b.T.name;
    Alcotest.(check bool) "begin args kept" true
      (b.T.args = [ ("round", M.Json.Num 1.0) ]);
    Alcotest.(check bool) "instant phase" true (i.T.phase = T.Instant);
    Alcotest.(check bool) "counter phase" true (c.T.phase = T.Counter);
    Alcotest.(check bool) "counter series" true
      (c.T.args = [ ("a", M.Json.Num 2.0); ("b", M.Json.Num 3.0) ]);
    Alcotest.(check bool) "end phase" true (e.T.phase = T.End);
    Alcotest.(check bool) "same domain" true
      (b.T.tid = e.T.tid && b.T.tid = i.T.tid);
    List.iter
      (fun (lo, hi) ->
        Alcotest.(check bool) "timestamps non-decreasing" true
          (lo.T.ts_us <= hi.T.ts_us))
      [ (b, i); (i, c); (c, e) ]
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs)

let test_span_exception_safe () =
  (match T.with_span "t.raises" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  match T.events () with
  | [ b; e ] ->
    Alcotest.(check bool) "begin then end" true
      (b.T.phase = T.Begin && e.T.phase = T.End)
  | evs -> Alcotest.failf "expected balanced pair, got %d events" (List.length evs)

(* --- Chrome export round-trip ------------------------------------------- *)

(* Walk the traceEvents list: every event must carry the mandatory
   fields, per-tid timestamps must be non-decreasing, and per-tid "B"
   and "E" phases must form a properly nested (balanced) stack. *)
let check_chrome_events events =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let field name ev =
    match M.Json.member name ev with
    | Some v -> v
    | None -> Alcotest.failf "event missing %S: %s" name (M.Json.to_string ev)
  in
  let str = function
    | M.Json.Str s -> s
    | j -> Alcotest.failf "expected string, got %s" (M.Json.to_string j)
  in
  let num = function
    | M.Json.Num n -> n
    | j -> Alcotest.failf "expected number, got %s" (M.Json.to_string j)
  in
  List.iter
    (fun ev ->
      let ph = str (field "ph" ev) in
      Alcotest.(check bool) ("known phase " ^ ph) true
        (List.mem ph [ "B"; "E"; "i"; "C"; "M" ]);
      let name = str (field "name" ev) in
      ignore (num (field "pid" ev));
      if ph <> "M" then begin
        let tid = int_of_float (num (field "tid" ev)) in
        let ts = num (field "ts" ev) in
        (match Hashtbl.find_opt last_ts tid with
        | Some prev ->
          Alcotest.(check bool) "per-tid timestamps non-decreasing" true
            (ts >= prev)
        | None -> ());
        Hashtbl.replace last_ts tid ts;
        let stack =
          Option.value ~default:[] (Hashtbl.find_opt stacks tid)
        in
        match ph with
        | "B" -> Hashtbl.replace stacks tid (name :: stack)
        | "E" -> (
          match stack with
          | _ :: rest -> Hashtbl.replace stacks tid rest
          | [] -> Alcotest.failf "tid %d: E %S without open B" tid name)
        | _ -> ()
      end)
    events;
  Hashtbl.iter
    (fun tid stack ->
      Alcotest.(check (list string))
        (Printf.sprintf "tid %d: all spans closed" tid)
        [] stack)
    stacks

let trace_events_of_string s =
  match M.Json.member "traceEvents" (M.Json.parse s) with
  | Some (M.Json.List events) -> events
  | _ -> Alcotest.fail "no traceEvents list"

let test_chrome_roundtrip () =
  T.with_span "rt.outer" (fun () ->
      T.with_span "rt.inner" (fun () -> T.instant "rt.mark");
      T.counter "rt.count" [ ("v", 42.0) ]);
  let events = trace_events_of_string (T.to_chrome_string ()) in
  check_chrome_events events;
  let names =
    List.filter_map
      (fun ev ->
        match M.Json.member "name" ev with
        | Some (M.Json.Str s) -> Some s
        | _ -> None)
      events
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [ "rt.outer"; "rt.inner"; "rt.mark"; "rt.count";
      "process_name"; "thread_name" ];
  (* The instant event carries thread scope, the counter its series. *)
  List.iter
    (fun ev ->
      match (M.Json.member "name" ev, M.Json.member "ph" ev) with
      | Some (M.Json.Str "rt.mark"), Some (M.Json.Str "i") ->
        Alcotest.(check bool) "instant scope" true
          (M.Json.member "s" ev = Some (M.Json.Str "t"))
      | Some (M.Json.Str "rt.count"), Some (M.Json.Str "C") ->
        Alcotest.(check bool) "counter args" true
          (match M.Json.member "args" ev with
          | Some (M.Json.Obj [ ("v", M.Json.Num 42.0) ]) -> true
          | _ -> false)
      | _ -> ())
    events

let test_jsonl_lines_parse () =
  T.with_span "jl.span" (fun () -> T.instant "jl.mark");
  let path = Filename.temp_file "tracing" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      T.write_jsonl oc;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "one line per event" 3 (List.length !lines);
      List.iter
        (fun line ->
          let ev = M.Json.parse line in
          List.iter
            (fun key ->
              Alcotest.(check bool) (key ^ " present") true
                (M.Json.member key ev <> None))
            [ "ts_us"; "tid"; "ph"; "name" ])
        !lines)

let test_ring_overflow () =
  (* A tiny ring: 100 one-event instants cannot fit in 16 slots, so the
     oldest are dropped — but the Chrome export must stay well-formed,
     including when an unclosed span's Begin was overwritten. The
     capacity only applies to buffers created after the call, so the
     burst runs on a fresh domain (this domain's ring already exists). *)
  T.set_capacity 16;
  Fun.protect
    ~finally:(fun () -> T.set_capacity (1 lsl 18))
    (fun () ->
      Domain.join
        (Domain.spawn (fun () ->
             T.with_span "ov.outer" (fun () ->
                 for i = 1 to 100 do
                   T.instant
                     ~args:[ ("i", M.Json.Num (float_of_int i)) ]
                     "ov.tick"
                 done)));
      Alcotest.(check bool) "events dropped" true (T.dropped_events () > 0);
      Alcotest.(check bool) "ring keeps the tail" true
        (List.exists
           (fun e -> e.T.args = [ ("i", M.Json.Num 100.0) ])
           (T.events ()));
      check_chrome_events (trace_events_of_string (T.to_chrome_string ())))

(* --- Pipeline smoke ------------------------------------------------------ *)

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
  let names = List.map (fun ev -> ev.T.name) (T.events ()) in
  (* One span per instrumented stage (the tentpole acceptance list). *)
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " traced") true
        (List.mem expected names))
    [
      "eval.seminaive"; "eval.round"; "eval.delta"; "closure.build";
      "encode.build"; "encode.sizes"; "encode.phi_graph"; "encode.phi_root";
      "encode.phi_proof"; "encode.phi_acyclic"; "sat.solve"; "enum.next";
      "enum.member"; "enum.exhausted";
    ];
  check_chrome_events (trace_events_of_string (T.to_chrome_string ()))

(* --- Concurrent emission (batch worker pool) ----------------------------- *)

let fact = D.Fact.of_strings

let gen_graph_db =
  QCheck.Gen.(
    let* n_edges = int_range 1 6 in
    list_repeat n_edges
      (let* x = oneofa [| "b0"; "b1"; "b2"; "b3" |] in
       let* y = oneofa [| "b0"; "b1"; "b2"; "b3" |] in
       return (fact "edge" [ x; y ])))

let arb_graph_db =
  QCheck.make gen_graph_db ~print:(fun facts ->
      String.concat " " (List.map D.Fact.to_string facts))

(* Raw per-tid streams (no exporter re-balancing): each domain's B/E
   events must already form a balanced stack — a worker's span can
   never end up recorded under another domain — and every task the pool
   ran must have produced exactly one "batch.task" span. *)
let prop_concurrent_no_loss =
  QCheck.Test.make ~count:15
    ~name:"batch --jobs 4: no lost events, per-domain spans never interleave"
    arb_graph_db (fun facts ->
      let db = D.Database.of_list facts in
      T.reset ();
      T.set_enabled true;
      let outcome =
        Fun.protect
          ~finally:(fun () -> T.set_enabled false)
          (fun () ->
            P.Batch.run ~jobs:4 ~limit:20 reach_program db
              (P.Batch.All_answers (D.Symbol.intern "tc")))
      in
      let events = T.events () in
      let dropped = T.dropped_events () in
      T.reset ();
      if dropped <> 0 then
        QCheck.Test.fail_report "ring overflowed; raw-stream check invalid";
      (* Per-tid stack discipline on the raw stream. *)
      let tids =
        List.sort_uniq compare (List.map (fun e -> e.T.tid) events)
      in
      let balanced tid =
        let depth = ref 0 in
        let ok = ref true in
        List.iter
          (fun e ->
            if e.T.tid = tid then
              match e.T.phase with
              | T.Begin -> incr depth
              | T.End ->
                if !depth = 0 then ok := false else decr depth
              | T.Instant | T.Counter -> ())
          events;
        !ok && !depth = 0
      in
      let task_begins =
        List.length
          (List.filter
             (fun e -> e.T.phase = T.Begin && e.T.name = "batch.task")
             events)
      in
      let task_ends =
        List.length
          (List.filter
             (fun e -> e.T.phase = T.End && e.T.name = "batch.task")
             events)
      in
      List.for_all balanced tids
      && task_begins = List.length outcome.P.Batch.results
      && task_ends = task_begins)

(* --- One span, two sinks ---------------------------------------------------- *)

(* A random span program: nested spans over three names, some of which
   raise once their children have run. Each domain runs it with every
   child's exception caught, so the raising spans close by unwinding.
   Every span sleeps a little, so durations are not all zero. *)
type span_prog = Span of string * bool * span_prog list

exception Boom

let gen_span_prog =
  QCheck.Gen.(
    let name = oneofl [ "p.a"; "p.b"; "p.c" ] in
    sized_size (int_range 1 12)
    @@ fix (fun self n ->
           let* nm = name in
           let* raises = frequency [ (3, return false); (1, return true) ] in
           let* children =
             if n <= 1 then return []
             else list_size (int_range 0 3) (self (n / 2))
           in
           return (Span (nm, raises, children))))

let rec show_span_prog (Span (n, r, cs)) =
  Printf.sprintf "%s%s[%s]" n (if r then "!" else "")
    (String.concat " " (List.map show_span_prog cs))

let rec run_span_prog (Span (name, raises, children)) =
  T.with_span name (fun () ->
      List.iter (fun c -> try run_span_prog c with Boom -> ()) children;
      Unix.sleepf 1e-5;
      if raises then raise Boom)

(* Runs [p] on this domain and on two spawned ones, with the given sinks
   on, from zeroed sinks. A spawned domain's ring stays registered after
   the join, so theirs are kept small. *)
let run_with_sinks ~stats ~trace p =
  let run () = try run_span_prog p with Boom -> () in
  M.reset ();
  T.reset ();
  M.set_enabled stats;
  T.set_enabled trace;
  T.set_capacity 4096;
  Fun.protect
    ~finally:(fun () ->
      T.set_capacity (1 lsl 18);
      M.set_enabled false;
      T.set_enabled false)
    (fun () ->
      run ();
      List.iter Domain.join [ Domain.spawn run; Domain.spawn run ])

let span_names = [ "p.a"; "p.b"; "p.c" ]

let timer name =
  match List.assoc_opt name (M.snapshot ()) with
  | Some (M.Timer_value { count; total; self; _ }) -> (count, total, self)
  | _ -> (0, 0., 0.)

(* Per name: B/E pairs, summed E−B and summed E−B minus direct
   children's, in microseconds, from the raw per-domain streams. *)
let pair_sums events =
  let sums = Hashtbl.create 4 and stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : T.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.T.tid) in
      match (e.T.phase, stack) with
      | T.Begin, _ -> Hashtbl.replace stacks e.T.tid ((e, ref 0.) :: stack)
      | T.End, (b, children) :: rest ->
        let d = e.T.ts_us -. b.T.ts_us in
        let n, total, self =
          Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt sums b.T.name)
        in
        Hashtbl.replace sums b.T.name (n + 1, total +. d, self +. d -. !children);
        (match rest with (_, parent) :: _ -> parent := !parent +. d | [] -> ());
        Hashtbl.replace stacks e.T.tid rest
      | _ -> ())
    events;
  fun name -> Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt sums name)

let prop_one_span_two_sinks =
  QCheck.Test.make ~count:60 ~name:"a span is one timer event and one B/E pair"
    (QCheck.make gen_span_prog ~print:show_span_prog) (fun p ->
      run_with_sinks ~stats:true ~trace:true p;
      let pairs = pair_sums (T.events ()) in
      let both_agree =
        List.for_all
          (fun name ->
            let n, total_us, self_us = pairs name in
            let count, total, self = timer name in
            count = n && total = total_us /. 1e6 && self = self_us /. 1e6)
          span_names
      in
      let expected = List.map (fun name -> let n, _, _ = pairs name in n) span_names in
      run_with_sinks ~stats:true ~trace:false p;
      let stats_only =
        T.events () = []
        && List.map (fun name -> let c, _, _ = timer name in c) span_names = expected
      in
      run_with_sinks ~stats:false ~trace:true p;
      let trace_only =
        M.snapshot () = []
        && List.map (fun name -> let n, _, _ = pair_sums (T.events ()) name in n) span_names
           = expected
      in
      let dropped = T.dropped_events () in
      M.reset ();
      T.reset ();
      dropped = 0 && List.fold_left ( + ) 0 expected > 0 && both_agree && stats_only
      && trace_only)

let suite =
  let tc = Alcotest.test_case in
  ( "tracing",
    List.map QCheck_alcotest.to_alcotest [ prop_concurrent_no_loss; prop_one_span_two_sinks ]
    @ [
        tc "disabled is a no-op" `Quick (with_tracing test_disabled_is_noop);
        tc "basic recording" `Quick (with_tracing test_basic_recording);
        tc "span exception safety" `Quick (with_tracing test_span_exception_safe);
        tc "chrome round-trip" `Quick (with_tracing test_chrome_roundtrip);
        tc "jsonl lines parse" `Quick (with_tracing test_jsonl_lines_parse);
        tc "ring overflow" `Quick (with_tracing test_ring_overflow);
        tc "pipeline smoke" `Quick (with_tracing test_pipeline_smoke);
      ] )
