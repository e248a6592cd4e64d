(* Shared machinery for the benchmark harness: timing, box-plot
   statistics, scenario registry, and the per-tuple measurement
   pipeline used by every figure. *)

module D = Datalog
module P = Provenance
module W = Workloads
module Metrics = Util.Metrics

let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* --- Parameters (set from the command line) --------------------------- *)

type config = {
  mutable scale : float;
  mutable tuples : int;        (* answer tuples per database *)
  mutable member_limit : int;  (* enumeration cap per tuple (paper: 10K) *)
  mutable tuple_timeout : float; (* seconds per tuple (paper: 5 min) *)
  mutable conflict_budget : int; (* solver budget per member *)
  mutable max_fill : int;      (* vertex-elimination fill cap (paper: OOM) *)
  mutable seed : int;
  mutable jobs : int;          (* worker domains for the batch experiment *)
  mutable stats_out : string option; (* JSONL sink, e.g. BENCH_fig1.json *)
  mutable trace_out : string option; (* Chrome trace sink (--trace-out) *)
  mutable rev : string option;       (* --rev label stamped on each row *)
  mutable check : string option;     (* baseline JSONL to regress against *)
  mutable check_tol : float;         (* allowed slowdown ratio for *_s *)
}

let config =
  {
    scale = 1.0;
    tuples = 5;
    member_limit = 500;
    tuple_timeout = 30.0;
    conflict_budget = 400_000;
    max_fill = 400_000;
    seed = 20240614;
    jobs = 4;
    stats_out = None;
    trace_out = None;
    rev = None;
    check = None;
    check_tol = 1.6;
  }

(* --- Stats rows (--stats-out) ------------------------------------------ *)

(* With --stats-out FILE every measured pipeline stage appends one JSON
   row to FILE: {"kind"; envelope; stage fields...; "metrics": <snapshot>}.
   The metrics registry is reset at the start of each measurement, so a
   row's "metrics" object is that stage's own activity — the schema of
   the snapshot is the one documented in docs/OBSERVABILITY.md.

   Every row carries the common envelope (EXPERIMENTS.md, "The row
   envelope"): "schema" = whyprov.bench/1, "workload" (the experiment
   being run, unless the stage already names one), "seed", "elapsed_s"
   since harness start, "cpus" (the recommended domain count) and
   "ocaml" (the compiler version) of the machine that ran it, and the
   optional --rev label. The envelope is
   what makes BENCH_*.json files comparable across revisions — the
   regression gate ([--check], {!Regress}) matches rows by (kind,
   ordinal) and compares field by field. *)

let bench_schema_version = "whyprov.bench/1"
let run_start = Unix.gettimeofday ()

(* The experiment currently running; set by main.ml before dispatch so
   rows that don't name a workload themselves inherit it. *)
let current_workload = ref "-"

(* Rows of this run, in emission order — the fresh side of --check. *)
let collected_rows : Metrics.Json.t list ref = ref []
let stats_channel = ref None
let recording () = config.stats_out <> None || config.check <> None

let emit_stats_row kind fields =
  if recording () then begin
    let envelope =
      Metrics.Json.(
        [ ("schema", Str bench_schema_version) ]
        @ (if List.mem_assoc "workload" fields then []
           else [ ("workload", Str !current_workload) ])
        @ [
            ("seed", Num (float_of_int config.seed));
            ("elapsed_s", Num (Unix.gettimeofday () -. run_start));
            ("cpus", Num (float_of_int (Domain.recommended_domain_count ())));
            ("ocaml", Str Sys.ocaml_version);
          ]
        @ (match config.rev with Some r -> [ ("rev", Str r) ] | None -> []))
    in
    let row =
      Metrics.Json.Obj
        ((("kind", Metrics.Json.Str kind) :: envelope)
        @ fields
        @ [ ("metrics", Metrics.snapshot_to_json ()) ])
    in
    collected_rows := row :: !collected_rows;
    match config.stats_out with
    | None -> ()
    | Some path ->
      let oc =
        match !stats_channel with
        | Some oc -> oc
        | None ->
          let oc = open_out path in
          stats_channel := Some oc;
          at_exit (fun () -> close_out oc);
          oc
      in
      output_string oc (Metrics.Json.to_string row);
      output_char oc '\n';
      flush oc
  end

let stats_begin () = if recording () then Metrics.reset ()

(* --- Scenario registry ------------------------------------------------- *)

let transclosure () = W.Transclosure.scenario ~scale:config.scale ()
let doctors () = W.Doctors.scenarios ~scale:config.scale ()
let galen () = W.Galen.scenario ~scale:config.scale ()
let andersen () = W.Andersen.scenario ~scale:config.scale ()
let csda () = W.Csda.scenario ~scale:config.scale ()

let all_scenarios () =
  (transclosure () :: doctors ()) @ [ galen (); andersen (); csda () ]

(* --- Statistics --------------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let idx = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor idx) and hi = int_of_float (ceil idx) in
    let frac = idx -. floor idx in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

type box = {
  n : int;
  min_v : float;
  q1 : float;
  median : float;
  q3 : float;
  max_v : float;
}

let box_of_list values =
  let sorted = Array.of_list values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then { n = 0; min_v = nan; q1 = nan; median = nan; q3 = nan; max_v = nan }
  else
    {
      n;
      min_v = sorted.(0);
      q1 = percentile sorted 0.25;
      median = percentile sorted 0.5;
      q3 = percentile sorted 0.75;
      max_v = sorted.(n - 1);
    }

let ms v = v *. 1000.0

let pp_time ppf seconds =
  if seconds < 0.001 then Format.fprintf ppf "%.0fµs" (seconds *. 1e6)
  else if seconds < 1.0 then Format.fprintf ppf "%.1fms" (seconds *. 1e3)
  else Format.fprintf ppf "%.2fs" seconds

let time_str seconds = Format.asprintf "%a" pp_time seconds

(* --- Per-tuple pipeline measurements ----------------------------------- *)

type build_measurement = {
  goal : D.Fact.t;
  closure_time : float;
  encode_time : float;
  closure_nodes : int;
  closure_hyperedges : int;
  formula_vars : int;
  formula_clauses : int;
  elim_width : int;
  too_large : bool;
}

type enum_status =
  | Exhausted
  | Hit_limit
  | Timed_out
  | Gave_up

let status_str = function
  | Exhausted -> "all"
  | Hit_limit -> "limit"
  | Timed_out -> "timeout"
  | Gave_up -> "gave-up"

type enum_measurement = {
  members : int;
  delays : float list; (* seconds per member *)
  status : enum_status;
  total_time : float;
}

(* Materialize the model once per database; individual tuples then time
   the backward closure + the formula construction, which together
   correspond to the paper's "downward closure + Boolean formula" bars
   (the model materialization is reported separately, as DLV's
   evaluation was in the paper's setup). *)
let measure_build program model db goal =
  stats_begin ();
  let emit_row (m : build_measurement) =
    emit_stats_row "build"
      Metrics.Json.
        [
          ("goal", Str (D.Fact.to_string m.goal));
          ("closure_s", Num m.closure_time);
          ("encode_s", Num m.encode_time);
          ("closure_nodes", Num (float_of_int m.closure_nodes));
          ("closure_hyperedges", Num (float_of_int m.closure_hyperedges));
          ("formula_vars", Num (float_of_int m.formula_vars));
          ("formula_clauses", Num (float_of_int m.formula_clauses));
          ("elim_width", Num (float_of_int m.elim_width));
          ("too_large", Bool m.too_large);
        ]
  in
  let closure, closure_time =
    time (fun () -> P.Closure.build_with_model program ~model db goal)
  in
  match
    time (fun () ->
        try Some (P.Encode.make ~max_fill:config.max_fill closure)
        with P.Encode.Too_large _ -> None)
  with
  | Some encoding, encode_time ->
    let st = P.Encode.stats encoding in
    let m =
      {
        goal;
        closure_time;
        encode_time;
        closure_nodes = P.Closure.num_nodes closure;
        closure_hyperedges = P.Closure.num_hyperedges closure;
        formula_vars = st.P.Encode.variables;
        formula_clauses = st.P.Encode.clauses;
        elim_width = st.P.Encode.elimination_width;
        too_large = false;
      }
    in
    emit_row m;
    (Some (closure, encoding), m)
  | None, encode_time ->
    let m =
      {
        goal;
        closure_time;
        encode_time;
        closure_nodes = P.Closure.num_nodes closure;
        closure_hyperedges = P.Closure.num_hyperedges closure;
        formula_vars = 0;
        formula_clauses = 0;
        elim_width = 0;
        too_large = true;
      }
    in
    emit_row m;
    (None, m)

let measure_enumeration ?(limit = config.member_limit) closure encoding =
  stats_begin ();
  let enumeration = P.Enumerate.of_parts closure encoding in
  let deadline = Unix.gettimeofday () +. config.tuple_timeout in
  let delays = ref [] in
  let status = ref Hit_limit in
  let start = Unix.gettimeofday () in
  (try
     for _ = 1 to limit do
       let t0 = Unix.gettimeofday () in
       (match P.Enumerate.next_limited ~conflict_budget:config.conflict_budget enumeration with
       | `Member _ -> delays := (Unix.gettimeofday () -. t0) :: !delays
       | `Exhausted ->
         status := Exhausted;
         raise Exit
       | `Gave_up ->
         status := Gave_up;
         raise Exit);
       if Unix.gettimeofday () > deadline then begin
         status := Timed_out;
         raise Exit
       end
     done
   with Exit -> ());
  let m =
    {
      members = List.length !delays;
      delays = List.rev !delays;
      status = !status;
      total_time = Unix.gettimeofday () -. start;
    }
  in
  emit_stats_row "enumerate"
    Metrics.Json.
      [
        ("goal", Str (D.Fact.to_string (P.Closure.root closure)));
        ("members", Num (float_of_int m.members));
        ("status", Str (status_str m.status));
        ("total_s", Num m.total_time);
      ];
  m

(* --- Output ------------------------------------------------------------- *)

let header title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let row fmt = Printf.ksprintf (fun s -> print_string s; flush stdout) fmt
