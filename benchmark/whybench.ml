(* whybench: the request-level benchmark of the why-provenance pipeline.

   One process runs one workload (README.md gives the table and the
   reasons for each). It generates the workload's .dl text from
   --seed, sets it up through the public API, then replays a fixed
   list of requests as a closed loop with one client until --seconds
   have passed. Every call into a layer is timed from here, inside a
   bench.* trace span; every answer is checked afterwards by an oracle
   that does not use the solver. Each metric is printed as
   [workload metric value unit], and the last line of standard output
   is the JSON result. Without --workload, all five workloads run,
   each in its own process. *)

module D = Datalog
module P = Provenance
module A = Whyprov_analysis
module Json = Util.Metrics.Json
module Tracing = Util.Tracing
module Rng = Util.Rng
open Whybench_lib

let workloads =
  [ "explain-dense"; "explain-sparse"; "decide"; "batch-doctors"; "cold-start" ]

(* The metrics of each mode, with their units; BENCHMARK.json declares
   the same names. Every workload prints every end-to-end metric. A
   per-layer metric of a layer the workload bypasses reads 0. The
   request latencies and throughput are per-layer, not end-to-end:
   their spread over ten runs exceeded the 10% bound on the shared
   machine the benchmark was defined on (README.md). *)
let end_to_end = [ ("setup_s", "s"); ("heap_mb", "MB") ]

let per_layer =
  [
    ("latency_ms.p50", "ms"); ("latency_ms.p90", "ms"); ("throughput_per_s", "1/s");
    ("parser.s", "s"); ("parser.mb_per_s", "MB/s"); ("check.s", "s");
    ("load.s", "s"); ("eval.s", "s"); ("eval.rounds", "count");
    ("eval.model_facts", "count"); ("eval.derived_per_s", "1/s");
    ("closure.ms.p50", "ms"); ("closure.ms.p90", "ms");
    ("closure.first_ms", "ms"); ("closure.nodes.p50", "count");
    ("closure.hyperedges.p50", "count"); ("encode.ms.p50", "ms");
    ("encode.ms.p90", "ms"); ("encode.vars.p50", "count");
    ("encode.clauses.p50", "count"); ("encode.elim_width.p50", "count");
    ("encode.fill_edges.p50", "count"); ("encode.too_large", "count");
    ("preprocess.clause_ratio.p50", "ratio");
    ("preprocess.eliminated_vars.p50", "count");
    ("first_member_ms.p50", "ms"); ("first_member_ms.p90", "ms");
    ("member_delay_ms.p50", "ms"); ("member_delay_ms.p99", "ms");
    ("enum.first_ms.p50", "ms"); ("enum.exhausted_frac", "ratio");
    ("enum.capped_frac", "ratio"); ("sat.conflicts_per_member", "count");
    ("sat.decisions_per_member", "count");
    ("sat.propagations_per_member", "count");
    ("decide.prepare_ms.p50", "ms"); ("decide.pos_ms.p50", "ms");
    ("decide.neg_ms.p50", "ms"); ("sat.conflicts_per_decision", "count");
    ("batch.materialize_s", "s"); ("batch.closures_s", "s");
    ("batch.fanout_s", "s"); ("batch.task_ms.p50", "ms");
    ("batch.task_ms.p90", "ms"); ("batch.cache_hit_rate", "ratio");
    ("batch.parallelism", "ratio"); ("batch.cpu_per_wall", "ratio");
    ("parser.self_ms", "ms"); ("check.self_ms", "ms"); ("load.self_ms", "ms");
    ("eval.self_ms", "ms"); ("closure.self_ms", "ms"); ("encode.self_ms", "ms");
    ("preprocess.self_ms", "ms"); ("enum.self_ms", "ms"); ("sat.self_ms", "ms");
    ("decide.self_ms", "ms"); ("batch.self_ms", "ms");
    ("request.unattributed_ms.p50", "ms"); ("trace.overhead", "ratio");
    ("trace.dropped_events", "count");
    ("gc.minor_mwords_per_request", "Mwords"); ("gc.major_collections", "count");
  ]

(* --- Command line ------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 15.0
let trace = ref false
let trace_out = ref ""
let cold_child = ref ""
let cold_goal = ref ""

let specs =
  [
    ( "--workload", Arg.Set_string workload,
      "NAME  run one workload (default: all five, each in its own process)" );
    ("--seed", Arg.Set_int seed, "N  seed of the generated inputs (default 1)");
    ("--seconds", Arg.Set_float seconds, "S  measuring time of one workload (default 15)");
    ( "--trace", Arg.Int (fun t -> trace := t <> 0),
      "0|1  0: end-to-end metrics, untraced; 1: per-layer metrics, traced" );
    ( "--trace-out", Arg.Set_string trace_out,
      "FILE  with --trace 1, also write the spans as a Chrome trace (Perfetto)" );
    ( "--cold-child", Arg.Set_string cold_child,
      "FILE  (internal) one cold explain of FILE: the cold-start request" );
    ("--goal", Arg.Set_string cold_goal, "X,Y  (internal) the pt tuple of --cold-child");
  ]

(* --- Measurement ------------------------------------------------------- *)

let now = Unix.gettimeofday
let fi = float_of_int
let sum = Array.fold_left ( +. ) 0.0
let ms = Array.map (fun s -> s *. 1000.0)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* One call into a layer, timed from outside inside a bench.* span. *)
let call span f =
  Tracing.with_span span @@ fun () ->
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between order statistics; 0 on no samples. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. fi (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. fi lo))
  end

let median = quantile 0.5
let mean xs = if xs = [||] then 0.0 else sum xs /. fi (Array.length xs)

type reported = { name : string; value : float; unit_ : string; n : int option }

(* In first-report order. Reporting a name again replaces its value:
   cold-start reports its children's stages over its own set-up's. *)
let reported : reported list ref = ref []

let report ?n name unit_ value =
  let m = { name; value; unit_; n } in
  if List.exists (fun r -> r.name = name) !reported then
    reported := List.map (fun r -> if r.name = name then m else r) !reported
  else reported := !reported @ [ m ]

(* A percentile metric, printed with its sample count. *)
let report_q name unit_ q xs = report ~n:(Array.length xs) name unit_ (quantile q xs)

let heap_mb words = words *. fi (Sys.word_size / 8) /. 1048576.0

(* --- Traced requests ----------------------------------------------------

   A traced request records the library's own spans (closure.build,
   preprocess.simplify, sat.solve, batch.task, ...) under whybench's
   bench.* spans. After each request the events are folded into
   per-layer self times (a span's time minus its children's on the same
   domain) and the buffers are reset, so one request's events must fit
   in them: a dropped event fails the run. *)

let layer_of name =
  let starts p = String.starts_with ~prefix:p name in
  match name with
  | "bench.request" -> "request"
  | "bench.parse" -> "parser"
  | "bench.check" -> "check"
  | "bench.load" -> "load"
  | "preprocess.simplify" -> "preprocess"
  | "sat.solve" -> "sat"
  | "bench.decide" -> "decide"
  | _ when starts "bench.eval" || starts "eval." -> "eval"
  | _ when starts "bench.closure" || starts "closure." -> "closure"
  | _ when starts "bench.encode" || starts "encode." -> "encode"
  | _ when starts "bench.enum" || starts "enum." -> "enum"
  | _ when starts "bench.batch" || starts "batch." -> "batch"
  | _ -> "other"

let span_layers =
  [ "parser"; "check"; "load"; "eval"; "closure"; "encode"; "preprocess"; "enum";
    "sat"; "decide"; "batch" ]

let self_ms : (string, float) Hashtbl.t = Hashtbl.create 16
let traced_requests = ref 0
let unattributed_ms = ref []
let dropped = ref 0
let chrome_events = ref []

let add_self layer v =
  Hashtbl.replace self_ms layer (v +. Option.value ~default:0.0 (Hashtbl.find_opt self_ms layer))

let absorb (events : Tracing.event list) =
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (ev : Tracing.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks ev.tid) in
      match (ev.phase, stack) with
      | Tracing.Begin, _ -> Hashtbl.replace stacks ev.tid ((ev.name, ev.ts_us, ref 0.0) :: stack)
      | Tracing.End, (name, start, children) :: rest ->
        let dur = ev.ts_us -. start in
        let self = (dur -. !children) /. 1000.0 in
        (match layer_of name with
        | "request" -> unattributed_ms := self :: !unattributed_ms
        | layer -> add_self layer self);
        (match rest with (_, _, parent) :: _ -> parent := !parent +. dur | [] -> ());
        Hashtbl.replace stacks ev.tid rest
      | _ -> ())
    events

(* Runs [f] as request [id]; when [traced], with tracing on. *)
let traced_request ~traced id f =
  if not traced then f ()
  else begin
    Tracing.reset ();
    Tracing.set_enabled true;
    let r =
      Fun.protect ~finally:(fun () -> Tracing.set_enabled false) @@ fun () ->
      Tracing.with_span ~args:[ ("request", Json.Num (fi id)) ] "bench.request" f
    in
    dropped := !dropped + Tracing.dropped_events ();
    absorb (Tracing.events ());
    incr traced_requests;
    if !trace_out <> "" then begin
      match Json.member "traceEvents" (Tracing.to_chrome_json ()) with
      | Some (Json.List evs) -> chrome_events := List.rev_append evs !chrome_events
      | _ -> ()
    end;
    r
  end

(* --- The closed loop ----------------------------------------------------

   A workload is a fixed, seeded list of requests. The loop replays it
   in rounds until --seconds have passed; the first round always
   completes (with --trace 1, the first two: even rounds run untraced,
   odd rounds traced). Every execution of a request does the same work
   and must give the same outcome digest, so each request is summarised
   by the median of each of its timings over its untraced executions,
   GC pauses included. *)

type exec = {
  latencies : float array;  (** the request's end-to-end latencies, seconds *)
  parts : float array;  (** its per-layer timings, seconds *)
  items : int;  (** members, decisions, tuples or invocations delivered *)
  failed : bool;
  digest : string;  (** member counts and statuses *)
}

type 'a replay = {
  first : 'a array;  (** what [keep] returned for each round-0 payload *)
  typical : exec array;  (** per request, the elementwise median over untraced rounds *)
  executions : int;
  failures : int;
  rounds : int;
  unstable : int;  (** executions whose digest differed from round 0's *)
  overhead : float;  (** traced over untraced latency, minus 1 *)
  digest : string;
  untraced : int;  (** untraced executions, which the GC figures cover *)
  minor_words : float;
  major_collections : int;
  heap_words : float;
      (** the mean over requests of the major heap after the request,
          per request the median over its untraced executions *)
}

(* The elementwise median of executions of one request. *)
let median_exec = function
  | [] -> assert false
  | e :: _ as execs ->
    let column f k = median (Array.of_list (List.map (fun x -> (f x).(k)) execs)) in
    {
      e with
      latencies = Array.init (Array.length e.latencies) (column (fun x -> x.latencies));
      parts = Array.init (Array.length e.parts) (column (fun x -> x.parts));
    }

(* [keep i payload] checks the answers of request [i]'s first
   execution, between requests, and returns what the report needs of
   them: dropping the rest keeps the benchmark's own data out of the
   heap the pipeline's GC has to scan. *)
let replay n ~keep (run : traced:bool -> int -> exec * 'a) =
  let first = Array.make n None in
  let untraced_execs = Array.make n [] and traced_latencies = Array.make n [] in
  let heaps = Array.make n [] in
  let executions = ref 0 and failures = ref 0 in
  let unstable = ref 0 and round = ref 0 in
  let untraced = ref 0 and minor_words = ref 0.0 and major_collections = ref 0 in
  let t0 = now () in
  let min_rounds = if !trace then 2 else 1 in
  let time_up () = !round >= min_rounds && now () -. t0 >= !seconds in
  (try
     while not (time_up ()) do
       let traced = !trace && !round mod 2 = 1 in
       for i = 0 to n - 1 do
         if time_up () then raise Exit;
         let gc0 = Gc.quick_stat () in
         let e, payload = run ~traced i in
         let gc1 = Gc.quick_stat () in
         incr executions;
         if e.failed then incr failures;
         let stable =
           match first.(i) with
           | None ->
             first.(i) <- Some (keep i payload, e.digest);
             true
           | Some (_, d) -> d = e.digest
         in
         if not stable then incr unstable
         else if traced then traced_latencies.(i) <- sum e.latencies :: traced_latencies.(i)
         else begin
           (* The GC figures cover untraced executions only: traced ones
              also allocate the tracer's events. *)
           untraced_execs.(i) <- e :: untraced_execs.(i);
           heaps.(i) <- fi gc1.Gc.heap_words :: heaps.(i);
           incr untraced;
           minor_words := !minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
           major_collections :=
             !major_collections + (gc1.Gc.major_collections - gc0.Gc.major_collections)
         end
       done;
       incr round
     done
   with Exit -> ());
  let first = Array.map Option.get first in
  let typical = Array.map median_exec untraced_execs in
  let traced = ref 0.0 and plain = ref 0.0 in
  Array.iteri
    (fun i ts ->
      if ts <> [] then begin
        traced := !traced +. median (Array.of_list ts);
        plain := !plain +. sum typical.(i).latencies
      end)
    traced_latencies;
  {
    first = Array.map fst first;
    typical;
    executions = !executions;
    failures = !failures;
    rounds = !round;
    unstable = !unstable;
    overhead = (if !plain > 0.0 then (!traced /. !plain) -. 1.0 else 0.0);
    digest =
      Digest.to_hex (Digest.string (String.concat ";" (Array.to_list (Array.map snd first))));
    untraced = !untraced;
    minor_words = !minor_words;
    major_collections = !major_collections;
    heap_words = mean (Array.map (fun h -> median (Array.of_list h)) heaps);
  }

let part k r = Array.map (fun e -> e.parts.(k)) r.typical

(* What every workload reports about its loop. Cold-start passes the
   GC figures of its child processes instead of its own. *)
type summary = {
  attempted : int;
  failed : int;
  digest : string;
  requests : int;
  rounds : int;
  unstable : int;
}

let report_loop ?gc r =
  let heap_mb_, minor_mwords, major =
    match gc with
    | Some g -> g
    | None ->
      ( heap_mb r.heap_words,
        ratio (r.minor_words /. 1e6) (fi r.untraced),
        fi r.major_collections )
  in
  let lat = ms (Array.concat (Array.to_list (Array.map (fun e -> e.latencies) r.typical))) in
  report_q "latency_ms.p50" "ms" 0.5 lat;
  report_q "latency_ms.p90" "ms" 0.9 lat;
  let items = Array.fold_left (fun acc e -> acc + e.items) 0 r.typical in
  report ~n:items "throughput_per_s" "1/s"
    (ratio (fi items) (sum (Array.map (fun e -> sum e.latencies) r.typical)));
  report "heap_mb" "MB" heap_mb_;
  report "gc.minor_mwords_per_request" "Mwords" minor_mwords;
  report "gc.major_collections" "count" major;
  report "trace.overhead" "ratio" r.overhead;
  {
    attempted = r.executions;
    failed = r.failures;
    digest = r.digest;
    requests = Array.length r.typical;
    rounds = r.rounds;
    unstable = r.unstable;
  }

(* --- Set-up: text to model ---------------------------------------------- *)

let setup_runs = 7

let load ~query text =
  let raw, parse_s = call "bench.parse" (fun () -> D.Parser.parse_raw text) in
  let checked, check_s = call "bench.check" (fun () -> A.Check.check_raw ~query raw) in
  let program =
    match checked.A.Check.program with
    | Some p -> p
    | None -> failwith "whybench: the generated program does not pass the analyzer"
  in
  let db, load_s = call "bench.load" (fun () -> D.Database.of_list checked.A.Check.facts) in
  (program, db, [| parse_s; check_s; load_s |])

let eval_rounds program db =
  let ranks = D.Fact.Table.create 1024 in
  ignore (D.Eval.seminaive ~ranks program db);
  D.Fact.Table.fold (fun _ r acc -> max r acc) ranks 0

(* Sets up [setup_runs] times and reports the median time and the
   median of each stage; returns the last set-up. [texts] are (query
   predicate, text) pairs; with [eval] each is evaluated to its
   model. *)
let set_up ~eval texts =
  let last = ref [] in
  let runs =
    List.init setup_runs (fun _ ->
        (* Every set-up starts from a compacted heap that holds none of
           the previous one. *)
        last := [];
        Gc.compact ();
        let t0 = now () in
        let times =
          List.fold_left
            (fun acc (query, text) ->
              let program, db, times = load ~query text in
              let model, eval_s =
                if eval then
                  let m, s = call "bench.eval" (fun () -> D.Eval.seminaive program db) in
                  (Some m, s)
                else (None, 0.0)
              in
              last := (program, db, model) :: !last;
              Array.map2 ( +. ) acc (Array.append times [| eval_s |]))
            (Array.make 4 0.0) texts
        in
        (now () -. t0, times))
  in
  let last = List.rev !last in
  (* Compact again, so that the requests neither sweep the set-up's
     garbage nor count it as heap. *)
  Gc.compact ();
  let stage k = median (Array.of_list (List.map (fun (_, s) -> s.(k)) runs)) in
  let bytes = List.fold_left (fun acc (_, text) -> acc + String.length text) 0 texts in
  let model_facts, db_facts =
    List.fold_left
      (fun (m, d) (_, db, model) ->
        match model with
        | Some model -> (m + D.Database.size model, d + D.Database.size db)
        | None -> (m, d))
      (0, 0) last
  in
  report ~n:setup_runs "setup_s" "s" (median (Array.of_list (List.map fst runs)));
  report "parser.s" "s" (stage 0);
  report "parser.mb_per_s" "MB/s" (ratio (fi bytes /. 1e6) (stage 0));
  report "check.s" "s" (stage 1);
  report "load.s" "s" (stage 2);
  report "eval.s" "s" (stage 3);
  report "eval.model_facts" "count" (fi model_facts);
  report "eval.derived_per_s" "1/s" (ratio (fi (model_facts - db_facts)) (stage 3));
  (* Ranks cost a second fixpoint; only the traced run reports them. *)
  if eval && !trace then
    report "eval.rounds" "count"
      (fi (List.fold_left (fun acc (p, db, _) -> max acc (eval_rounds p db)) 0 last));
  last

let single_model text query =
  match set_up ~eval:true [ (query, text) ] with
  | [ (program, db, Some model) ] -> (program, db, model)
  | _ -> assert false

(* --- Answer checks ------------------------------------------------------ *)

let wrong = ref 0
let checked_members = ref 0

let expect ok what =
  incr checked_members;
  if not ok then begin
    incr wrong;
    if !wrong <= 5 then prerr_endline ("whybench: wrong answer: " ^ Lazy.force what)
  end

(* --- Closure and encoding (explain and decide) -------------------------- *)

type shape = { nodes : int; hyperedges : int; encoding : P.Encode.stats option }

let first_closure_ms = ref None

let build (program, db, model) goal =
  let closure, closure_s =
    call "bench.closure" (fun () -> P.Closure.build_with_model program ~model db goal)
  in
  if !first_closure_ms = None then first_closure_ms := Some (closure_s *. 1000.0);
  let encoding, encode_s =
    call "bench.encode" (fun () ->
        try Some (P.Encode.make closure) with P.Encode.Too_large _ -> None)
  in
  let shape =
    {
      nodes = P.Closure.num_nodes closure;
      hyperedges = P.Closure.num_hyperedges closure;
      encoding = Option.map P.Encode.stats encoding;
    }
  in
  (closure, encoding, shape, closure_s, encode_s)

(* Parts 0 and 1 of every request are its closure and encoding times. *)
let report_shapes (shapes : shape array) r =
  report_q "closure.ms.p50" "ms" 0.5 (ms (part 0 r));
  report_q "closure.ms.p90" "ms" 0.9 (ms (part 0 r));
  report "closure.first_ms" "ms" (Option.value ~default:0.0 !first_closure_ms);
  report_q "encode.ms.p50" "ms" 0.5 (ms (part 1 r));
  report_q "encode.ms.p90" "ms" 0.9 (ms (part 1 r));
  let of_shapes f = Array.of_list (List.filter_map f (Array.to_list shapes)) in
  report_q "closure.nodes.p50" "count" 0.5 (Array.map (fun s -> fi s.nodes) shapes);
  report_q "closure.hyperedges.p50" "count" 0.5 (Array.map (fun s -> fi s.hyperedges) shapes);
  let enc f = of_shapes (fun s -> Option.map (fun e -> fi (f e)) s.encoding) in
  report_q "encode.vars.p50" "count" 0.5 (enc (fun e -> e.P.Encode.variables));
  report_q "encode.clauses.p50" "count" 0.5 (enc (fun e -> e.P.Encode.clauses));
  report_q "encode.elim_width.p50" "count" 0.5 (enc (fun e -> e.P.Encode.elimination_width));
  report_q "encode.fill_edges.p50" "count" 0.5 (enc (fun e -> e.P.Encode.fill_edges));
  report "encode.too_large" "count" (fi (Array.length shapes - Array.length (enc (fun _ -> 0))));
  let pre f =
    of_shapes (fun s -> Option.bind s.encoding (fun e -> Option.map f e.P.Encode.preprocess))
  in
  report_q "preprocess.clause_ratio.p50" "ratio" 0.5
    (pre (fun p -> ratio (fi p.Sat.Preprocess.clauses) (fi p.Sat.Preprocess.original_clauses)));
  report_q "preprocess.eliminated_vars.p50" "count" 0.5
    (pre (fun p -> fi p.Sat.Preprocess.eliminated_vars))

(* --- Explain workloads ---------------------------------------------------

   One request explains one answer tuple: closure, encoding, then
   enumeration up to [limit] members, the sequence of calls of
   [whyprov explain] (with [witness], of [whyprov explain --witness]). *)

type explained = {
  goal : D.Fact.t;
  members : (D.Fact.Set.t * P.Proof_dag.t option) list;
  exhausted : bool;
  shape : shape;
  sat : Sat.Solver.stats option;
}

(* parts: closure, encoding, first member (since the request started),
   first solve, then the delay of each later member. *)
let explain_request ~witness ~limit setup goal ~traced id =
  traced_request ~traced id @@ fun () ->
  let t0 = now () in
  let closure, encoding, shape, closure_s, encode_s = build setup goal in
  let result = { goal; members = []; exhausted = false; shape; sat = None } in
  match encoding with
  | None ->
    let tuple_s = now () -. t0 in
    ( { latencies = [| tuple_s |]; parts = [| closure_s; encode_s; tuple_s; 0.0 |];
        items = 0; failed = true; digest = "too-large" },
      result )
  | Some encoding ->
    let next e =
      if witness then Option.map (fun (m, d) -> (m, Some d)) (P.Enumerate.next_with_witness e)
      else Option.map (fun m -> (m, None)) (P.Enumerate.next e)
    in
    let (e, first), first_s =
      call "bench.enum.first" (fun () ->
          let e = P.Enumerate.of_parts closure encoding in
          (e, next e))
    in
    let first_member_s = now () -. t0 in
    let rec more acc delays k =
      if k >= limit then (acc, delays, false)
      else
        match call "bench.enum.next" (fun () -> next e) with
        | Some m, s -> more (m :: acc) (s :: delays) (k + 1)
        | None, _ -> (acc, delays, true)
    in
    let members, delays, exhausted =
      match first with None -> ([], [], true) | Some m -> more [ m ] [] 1
    in
    let tuple_s = now () -. t0 in
    let n = List.length members in
    ( {
        latencies = [| tuple_s |];
        parts =
          Array.of_list (closure_s :: encode_s :: first_member_s :: first_s :: List.rev delays);
        items = n;
        failed = false;
        digest = Printf.sprintf "%d%s" n (if exhausted then "e" else "c");
      },
      { result with
        members = List.rev members;
        exhausted;
        sat = Some (Sat.Solver.stats (P.Encode.solver encoding)) } )

let report_explain (first : explained array) r =
  report_shapes (Array.map (fun x -> x.shape) first) r;
  report_q "first_member_ms.p50" "ms" 0.5 (ms (part 2 r));
  report_q "first_member_ms.p90" "ms" 0.9 (ms (part 2 r));
  report_q "enum.first_ms.p50" "ms" 0.5 (ms (part 3 r));
  let later e = Array.sub e.parts 4 (Array.length e.parts - 4) in
  let delays = Array.concat (Array.to_list (Array.map later r.typical)) in
  report_q "member_delay_ms.p50" "ms" 0.5 (ms delays);
  report_q "member_delay_ms.p99" "ms" 0.99 (ms delays);
  let count p = fi (Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 first) in
  let tuples = fi (Array.length first) in
  report "enum.exhausted_frac" "ratio"
    (ratio (count (fun x -> x.exhausted && x.sat <> None)) tuples);
  report "enum.capped_frac" "ratio" (ratio (count (fun x -> not x.exhausted)) tuples);
  let members = Array.fold_left (fun acc e -> acc + e.items) 0 r.typical in
  let per_member f =
    let total = Array.fold_left (fun acc x -> acc + Option.fold ~none:0 ~some:f x.sat) 0 first in
    ratio (fi total) (fi members)
  in
  report "sat.conflicts_per_member" "count" (per_member (fun s -> s.Sat.Solver.conflicts));
  report "sat.decisions_per_member" "count" (per_member (fun s -> s.Sat.Solver.decisions));
  report "sat.propagations_per_member" "count" (per_member (fun s -> s.Sat.Solver.propagations))

(* Every workload derives its own generator and pick streams from
   --seed, so no two share a stream by accident. *)
let seeded k = (!seed * 7919) + k
let rng k = Rng.create (seeded k)

(* Dense and decide share the database: 60 communities of 16 nodes,
   about 8K edges. *)
let clustered () = Gen.clustered_digraph ~seed:(seeded 1) ~communities:60 ~size:16
let tc_goal (a, b) = D.Fact.of_strings "tc" [ Gen.node a; Gen.node b ]
let sym i = D.Symbol.intern (Gen.node i)

let explain_dense () =
  let g = clustered () in
  let setup = single_model g.Gen.text "tc" in
  let picks = rng 2 in
  let pairs = Array.init 50 (fun _ -> Gen.intra_pair picks g) in
  let keep i (x : explained) =
    let a, b = pairs.(i) in
    expect (Oracle.distinct (List.map fst x.members)) (lazy "repeated member");
    List.iter
      (fun (m, _) ->
        expect
          (Oracle.walk_member ~a:(sym a) ~b:(sym b) m)
          (lazy (Format.asprintf "%a is not in why_UN(%a)" D.Fact.pp_set m D.Fact.pp x.goal)))
      x.members;
    { x with members = [] }
  in
  let r =
    replay (Array.length pairs) ~keep (fun ~traced i ->
        explain_request ~witness:false ~limit:20 setup (tc_goal pairs.(i)) ~traced i)
  in
  report_explain r.first r;
  report_loop r

(* About 20K statements in families of eight functions (the size of
   the paper's Andersen D4). *)
let explain_sparse () =
  let text = Gen.pointer_program ~seed:(seeded 3) ~families:180 in
  let ((program, db, model) as setup) = single_model text "pt" in
  let answers = ref [] in
  D.Database.iter_pred model (D.Symbol.intern "pt") (fun f -> answers := f :: !answers);
  let goals = Rng.sample (rng 4) 1000 (Array.of_list (List.rev !answers)) in
  let keep _ (x : explained) =
    expect (Oracle.distinct (List.map fst x.members)) (lazy "repeated member");
    List.iter
      (fun (m, dag) ->
        let verdict = Oracle.check_witness program db x.goal m (Option.get dag) in
        expect (verdict = Ok ())
          (lazy
            (D.Fact.to_string x.goal ^ ": " ^ Result.fold ~ok:(fun () -> "") ~error:Fun.id verdict)))
      x.members;
    { x with members = [] }
  in
  let r =
    replay (Array.length goals) ~keep (fun ~traced i ->
        explain_request ~witness:true ~limit:50 setup goals.(i) ~traced i)
  in
  report_explain r.first r;
  report_loop r

(* --- Decide ---------------------------------------------------------------

   Why-Provenance_UN as a decision problem: per tuple one encoding, then
   [Enumerate.member] on ten random simple paths a→b and on each of
   them minus one edge. One request is one tuple; each decision is one
   latency sample. *)

type decided = { answers : bool array; conflicts : int; d_shape : shape }

let edge_set path =
  D.Fact.Set.of_list
    (List.map (fun (u, v) -> D.Fact.of_strings "edge" [ Gen.node u; Gen.node v ]) path)

let decide () =
  let g = clustered () in
  let setup = single_model g.Gen.text "tc" in
  let succ_tbl = Hashtbl.create 4096 in
  List.iter (fun (u, v) -> Hashtbl.add succ_tbl u v) g.Gen.edges;
  let succ u = Hashtbl.find_all succ_tbl u in
  let picks = rng 5 in
  let tuples =
    Array.init 50 (fun _ ->
        let a, b = Gen.intra_pair picks g in
        let paths = List.init 10 (fun _ -> Option.get (Gen.simple_path picks ~succ a b)) in
        let cut path =
          let k = Rng.int picks (List.length path) in
          List.filteri (fun i _ -> i <> k) path
        in
        let candidates = Array.of_list (List.map edge_set (paths @ List.map cut paths)) in
        let expected = Array.map (Oracle.walk_member ~a:(sym a) ~b:(sym b)) candidates in
        ((a, b), candidates, expected))
  in
  let keep i (x : decided) =
    let _, _, expected = tuples.(i) in
    Array.iteri
      (fun j answer ->
        expect (answer = expected.(j))
          (lazy (Printf.sprintf "decision %d of tuple %d: got %b" j i answer)))
      x.answers;
    x
  in
  let r =
    replay (Array.length tuples) ~keep (fun ~traced i ->
        traced_request ~traced i @@ fun () ->
        let pair, candidates, _ = tuples.(i) in
        let t0 = now () in
        let closure, encoding, shape, closure_s, encode_s = build setup (tc_goal pair) in
        match encoding with
        | None ->
          ( { latencies = [||]; parts = [| closure_s; encode_s; now () -. t0 |]; items = 0;
              failed = true; digest = "too-large" },
            { answers = [||]; conflicts = 0; d_shape = shape } )
        | Some encoding ->
          let e = P.Enumerate.of_parts closure encoding in
          let prepare_s = now () -. t0 in
          let conflicts () = (Sat.Solver.stats (P.Encode.solver encoding)).Sat.Solver.conflicts in
          let c0 = conflicts () in
          let decided =
            Array.map (fun c -> call "bench.decide" (fun () -> P.Enumerate.member e c)) candidates
          in
          let answers = Array.map fst decided in
          ( {
              latencies = Array.map snd decided;
              parts = [| closure_s; encode_s; prepare_s |];
              items = Array.length answers;
              failed = false;
              digest = String.concat "" (Array.to_list (Array.map string_of_bool answers));
            },
            { answers; conflicts = conflicts () - c0; d_shape = shape } ))
  in
  report_shapes (Array.map (fun x -> x.d_shape) r.first) r;
  report_q "decide.prepare_ms.p50" "ms" 0.5 (ms (part 2 r));
  let by_answer want =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i e ->
              let _, _, expected = tuples.(i) in
              Array.of_list
                (List.filteri (fun j _ -> expected.(j) = want) (Array.to_list e.latencies)))
            r.typical))
  in
  report_q "decide.pos_ms.p50" "ms" 0.5 (ms (by_answer true));
  report_q "decide.neg_ms.p50" "ms" 0.5 (ms (by_answer false));
  let decisions = Array.fold_left (fun acc x -> acc + Array.length x.answers) 0 r.first in
  report "sat.conflicts_per_decision" "count"
    (ratio (fi (Array.fold_left (fun acc x -> acc + x.conflicts) 0 r.first)) (fi decisions));
  report_loop r

(* --- Batch ----------------------------------------------------------------

   One request is one [whyprov batch --all] over a Doctors query: every
   answer tuple, 20 members each, on 2 domains. Doctors-1, -3 and -7
   are left out to keep a round near 4 s: at scale 0.5 they take 8 s,
   3 s and over 60 s. *)

let batch_queries = [ "Doctors-2"; "Doctors-4"; "Doctors-5"; "Doctors-6" ]

let batch_doctors () =
  let scale = 0.5 in
  let db = Workloads.Doctors.database ~scale ~seed:(seeded 6) () in
  let queries =
    List.filter
      (fun (sc : Workloads.Scenario.t) -> List.mem sc.name batch_queries)
      (Workloads.Doctors.scenarios ~scale ())
  in
  let texts =
    List.map
      (fun (sc : Workloads.Scenario.t) ->
        (D.Symbol.name sc.answer_pred, Workloads.Scenario.to_dl_string sc db))
      queries
  in
  let loaded = Array.of_list (set_up ~eval:false texts) in
  let preds =
    Array.of_list (List.map (fun (sc : Workloads.Scenario.t) -> sc.answer_pred) queries)
  in
  (* Every member must be distinct within its tuple, and every member of
     a seeded 10% of the tuples the support of an unambiguous proof tree
     over its own facts. *)
  let picks = rng 7 in
  let keep i (o : P.Batch.outcome) =
    let program, _, _ = loaded.(i) in
    List.iter
      (fun (x : P.Batch.result) ->
        expect (Oracle.distinct x.members) (lazy "repeated member");
        if Rng.int picks 10 = 0 then
          List.iter
            (fun m ->
              expect
                (Oracle.unambiguous_support program x.fact m)
                (lazy (Format.asprintf "%a is not in why_UN(%a)" D.Fact.pp_set m D.Fact.pp x.fact)))
            x.members)
      o.results;
    ( Array.of_list (List.map (fun (x : P.Batch.result) -> x.task_s) o.results),
      o.cache_hits,
      o.cache_misses )
  in
  let r =
    replay (Array.length loaded) ~keep (fun ~traced i ->
        traced_request ~traced i @@ fun () ->
        let program, db, _ = loaded.(i) in
        let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
        let c0 = cpu () in
        let o, run_s =
          call "bench.batch" (fun () ->
              P.Batch.run ~jobs:2 ~limit:20 ~conflict_budget:400_000 program db
                (P.Batch.All_answers preds.(i)))
        in
        let cpu_s = cpu () -. c0 in
        let failed =
          List.exists
            (fun (x : P.Batch.result) ->
              match x.status with
              | P.Batch.Complete | P.Batch.Limit_reached -> false
              | P.Batch.Budget_exhausted | P.Batch.Too_large | P.Batch.Not_derivable -> true)
            o.results
        in
        let digest =
          String.concat ","
            (List.map
               (fun (x : P.Batch.result) ->
                 Format.asprintf "%d%a" (List.length x.members) P.Batch.pp_status x.status)
               o.results)
        in
        ( {
            latencies = [| run_s |];
            parts =
              [| cpu_s; o.materialize_s; o.closures_s; o.fanout_s;
                 List.fold_left (fun acc (x : P.Batch.result) -> acc +. x.task_s) 0.0 o.results |];
            items = List.length o.results;
            failed;
            digest = Digest.to_hex (Digest.string digest);
          },
          o ))
  in
  let total k = sum (part k r) in
  report "batch.materialize_s" "s" (total 1);
  report "batch.closures_s" "s" (total 2);
  report "batch.fanout_s" "s" (total 3);
  report "batch.parallelism" "ratio" (ratio (total 4) (total 3));
  report "batch.cpu_per_wall" "ratio"
    (ratio (total 0) (sum (Array.map (fun e -> e.latencies.(0)) r.typical)));
  let tasks = Array.concat (Array.to_list (Array.map (fun (t, _, _) -> t) r.first)) in
  report_q "batch.task_ms.p50" "ms" 0.5 (ms tasks);
  report_q "batch.task_ms.p90" "ms" 0.9 (ms tasks);
  let hits = Array.fold_left (fun acc (_, h, _) -> acc + h) 0 r.first in
  let misses = Array.fold_left (fun acc (_, _, m) -> acc + m) 0 r.first in
  report "batch.cache_hit_rate" "ratio" (ratio (fi hits) (fi (hits + misses)));
  report_loop r

(* --- Cold start -----------------------------------------------------------

   Every request is a fresh process running the CLI path on a 100K
   statement program written to disk once: parse the file, check,
   load, evaluate, closure, encoding, first member with its witness.
   The child times its own stages and checks its witness after the
   timed part; its latency is measured here, from spawn to exit. *)

let cold_child_main file goal =
  if !trace then begin
    Tracing.set_capacity (1 lsl 19);
    Tracing.set_enabled true;
    Tracing.begin_span "bench.request"
  end;
  let raw, parse_s = call "bench.parse" (fun () -> D.Parser.parse_raw_file file) in
  let checked, check_s = call "bench.check" (fun () -> A.Check.check_raw ~query:"pt" raw) in
  let program = Option.get checked.A.Check.program in
  let db, load_s = call "bench.load" (fun () -> D.Database.of_list checked.A.Check.facts) in
  let model, eval_s = call "bench.eval" (fun () -> D.Eval.seminaive program db) in
  let goal = D.Fact.of_strings "pt" (String.split_on_char ',' goal) in
  let closure, encoding, _, closure_s, encode_s = build (program, db, model) goal in
  let first, first_s =
    match encoding with
    | None -> (None, 0.0)
    | Some encoding ->
      call "bench.enum.first" (fun () ->
          P.Enumerate.next_with_witness (P.Enumerate.of_parts closure encoding))
  in
  if !trace then begin
    Tracing.end_span "bench.request";
    Tracing.set_enabled false;
    absorb (Tracing.events ())
  end;
  let gc = Gc.quick_stat () in
  let status =
    match (encoding, first) with
    | None, _ -> "failed: vertex elimination too large"
    | Some _, None -> "wrong: no member"
    | Some _, Some (m, dag) -> (
      match Oracle.check_witness program db goal m dag with
      | Ok () -> "ok"
      | Error msg -> "wrong: " ^ msg)
  in
  let num f = Json.Num f in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("status", Json.Str status);
            ( "stages",
              Json.List
                (List.map num [ parse_s; check_s; load_s; eval_s; closure_s; encode_s; first_s ]) );
            ("heap_words", num (fi gc.Gc.heap_words));
            ("minor_words", num gc.Gc.minor_words);
            ("major_collections", num (fi gc.Gc.major_collections));
            ("self_ms", Json.Obj (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) self_ms []));
            ("unattributed_ms", Json.List (List.map num !unattributed_ms));
            ("dropped", num (fi (Tracing.dropped_events ())));
          ]))

(* Runs this executable with [args]; returns its standard output and
   exit status once it has ended. *)
let run_self args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.append [| Sys.executable_name |] args)
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (out, status)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let num_field key j =
  match Json.member key j with Some (Json.Num f) -> f | _ -> 0.0

let cold_start () =
  let text = Gen.pointer_program ~seed:(seeded 8) ~families:900 in
  (* The file goes to dune's build directory, which git ignores, so a
     run writes nothing outside the checkout and leaves nothing behind. *)
  let file = Filename.temp_file ~temp_dir:"_build" "whybench-cold-" ".dl" in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let _, db, model = single_model text "pt" in
  let answers = ref [] in
  D.Database.iter_pred model (D.Symbol.intern "pt") (fun f -> answers := f :: !answers);
  let goals = Rng.sample (rng 9) 4 (Array.of_list (List.rev !answers)) in
  let keep _ (goal, status) =
    expect (status = "ok") (lazy (D.Fact.to_string goal ^ ": " ^ status))
  in
  let r =
    replay (Array.length goals) ~keep (fun ~traced i ->
        let goal =
          String.concat "," (Array.to_list (Array.map D.Symbol.name (D.Fact.args goals.(i))))
        in
        let t0 = now () in
        let out, status =
          run_self
            [| "--cold-child"; file; "--goal"; goal; "--trace"; (if traced then "1" else "0") |]
        in
        let wall = now () -. t0 in
        let j =
          match status with
          | Unix.WEXITED 0 -> Json.parse (last_line out)
          | _ -> failwith "whybench: a cold-start child failed"
        in
        if traced then begin
          incr traced_requests;
          dropped := !dropped + int_of_float (num_field "dropped" j);
          (match Json.member "self_ms" j with
          | Some (Json.Obj l) ->
            List.iter (fun (k, v) -> match v with Json.Num v -> add_self k v | _ -> ()) l
          | _ -> ());
          match Json.member "unattributed_ms" j with
          | Some (Json.List l) ->
            List.iter (function Json.Num v -> unattributed_ms := v :: !unattributed_ms | _ -> ()) l
          | _ -> ()
        end;
        let status = match Json.member "status" j with Some (Json.Str s) -> s | _ -> "?" in
        let stages =
          match Json.member "stages" j with
          | Some (Json.List l) -> Array.of_list (List.map (function Json.Num f -> f | _ -> 0.0) l)
          | _ -> failwith "whybench: a cold-start child reported no stages"
        in
        let gc =
          Array.map (fun k -> num_field k j) [| "heap_words"; "minor_words"; "major_collections" |]
        in
        ( { latencies = [| wall |]; parts = Array.append stages gc; items = 1;
            failed = String.starts_with ~prefix:"failed" status; digest = status },
          (goals.(i), status) ))
  in
  let stage k = median (part k r) in
  report "parser.s" "s" (stage 0);
  report "parser.mb_per_s" "MB/s" (ratio (fi (String.length text) /. 1e6) (stage 0));
  report "check.s" "s" (stage 1);
  report "load.s" "s" (stage 2);
  report "eval.s" "s" (stage 3);
  report "eval.model_facts" "count" (fi (D.Database.size model));
  report "eval.derived_per_s" "1/s"
    (ratio (fi (D.Database.size model - D.Database.size db)) (stage 3));
  report_q "closure.ms.p50" "ms" 0.5 (ms (part 4 r));
  report_q "closure.ms.p90" "ms" 0.9 (ms (part 4 r));
  report "closure.first_ms" "ms" (1000.0 *. stage 4);
  report_q "encode.ms.p50" "ms" 0.5 (ms (part 5 r));
  report_q "encode.ms.p90" "ms" 0.9 (ms (part 5 r));
  report_q "enum.first_ms.p50" "ms" 0.5 (ms (part 6 r));
  let first_member = ms (Array.map (fun e -> e.parts.(4) +. e.parts.(5) +. e.parts.(6)) r.typical) in
  report_q "first_member_ms.p50" "ms" 0.5 first_member;
  report_q "first_member_ms.p90" "ms" 0.9 first_member;
  (* parts 7 to 9: the child's heap after its work, its minor words and
     its major GCs; the heap is averaged over requests as in [replay] *)
  let gc k = median (part (7 + k) r) in
  report_loop ~gc:(heap_mb (mean (part 7 r)), gc 1 /. 1e6, gc 2) r

(* --- Output ---------------------------------------------------------------- *)

let run_workload name =
  if !trace then Tracing.set_capacity (1 lsl 19);
  let summary =
    match name with
    | "explain-dense" -> explain_dense ()
    | "explain-sparse" -> explain_sparse ()
    | "decide" -> decide ()
    | "batch-doctors" -> batch_doctors ()
    | _ -> cold_start ()
  in
  if !trace then begin
    let per_request layer =
      ratio (Option.value ~default:0.0 (Hashtbl.find_opt self_ms layer)) (fi !traced_requests)
    in
    List.iter (fun layer -> report (layer ^ ".self_ms") "ms" (per_request layer)) span_layers;
    report_q "request.unattributed_ms.p50" "ms" 0.5 (Array.of_list !unattributed_ms);
    report "trace.dropped_events" "count" (fi !dropped)
  end;
  let failed_frac = ratio (fi summary.failed) (fi summary.attempted) in
  let correct = !wrong = 0 && summary.unstable = 0 && !dropped = 0 in
  (* A per-layer metric nobody reported belongs to a layer this
     workload bypasses. *)
  let bypassed (name, unit_) =
    if List.exists (fun m -> m.name = name) !reported then None
    else Some { name; value = 0.0; unit_; n = Some 0 }
  in
  let all = !reported @ if !trace then List.filter_map bypassed per_layer else [] in
  let metrics =
    List.map
      (fun (metric, unit_) ->
        match List.find_opt (fun m -> m.name = metric) all with
        | Some m when m.unit_ = unit_ -> m
        | Some _ -> failwith ("whybench: unit mismatch for " ^ metric)
        | None -> failwith ("whybench: metric not measured: " ^ metric))
      (if !trace then per_layer else end_to_end)
  in
  List.iter
    (fun m ->
      Printf.printf "%s %s %.6g %s%s\n" name m.name m.value m.unit_
        (match m.n with Some n -> Printf.sprintf " n=%d" n | None -> ""))
    all;
  Printf.printf "%s requests %d rounds %d attempted %d\n" name summary.requests summary.rounds
    summary.attempted;
  Printf.printf "%s failed_frac %.6g ratio\n" name failed_frac;
  Printf.printf "%s checked_members %d wrong %d unstable %d\n" name !checked_members !wrong
    summary.unstable;
  Printf.printf "%s digest %s\n" name summary.digest;
  if !trace_out <> "" then
    Out_channel.with_open_bin !trace_out (fun oc ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [ ("traceEvents", Json.List (List.rev !chrome_events));
                  ("displayTimeUnit", Json.Str "ms") ])));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (fi summary.attempted));
            ("failed", Json.Num (fi summary.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
                   metrics) );
          ]));
  if not correct then exit 1

(* Without --workload: every workload in its own process, one after
   the other, so GC state and the symbol table do not leak between
   them. *)
let run_all () =
  let results =
    List.map
      (fun name ->
        let trace_args =
          if !trace_out = "" then [||]
          else [| "--trace-out"; Filename.remove_extension !trace_out ^ "." ^ name ^ ".json" |]
        in
        let out, status =
          run_self
            (Array.append
               [| "--workload"; name; "--seed"; string_of_int !seed; "--seconds";
                  Printf.sprintf "%g" !seconds; "--trace"; (if !trace then "1" else "0") |]
               trace_args)
        in
        print_string out;
        flush stdout;
        let ok = status = Unix.WEXITED 0 in
        (name, ok, if ok then Json.parse (last_line out) else Json.Null))
      workloads
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("seed", Json.Num (fi !seed));
            ("workloads", Json.Obj (List.map (fun (name, _, j) -> (name, j)) results));
          ]));
  if List.exists (fun (_, ok, _) -> not ok) results then exit 1

let () =
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "whybench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]";
  if !cold_child <> "" then cold_child_main !cold_child !cold_goal
  else if !workload = "" then run_all ()
  else if List.mem !workload workloads then run_workload !workload
  else begin
    prerr_endline
      ("whybench: unknown workload " ^ !workload ^ "; one of: " ^ String.concat ", " workloads);
    exit 2
  end
