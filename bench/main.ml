(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Table 1, Figures 1–5) plus the hardness and
   ablation studies. See EXPERIMENTS.md for the paper-vs-measured
   discussion.

   Usage:
     dune exec bench/main.exe                       # everything
     dune exec bench/main.exe -- fig1 fig2          # selected experiments
     dune exec bench/main.exe -- --scale 0.2 all    # scaled-down databases
     dune exec bench/main.exe -- --tuples 3 --limit 500 fig4
*)

let usage () =
  print_endline
    "usage: main.exe [--scale F] [--tuples N] [--limit N] [--timeout S] \
     [--budget N] [--seed N] [--jobs N] [--stats-out FILE.json] \
     [--trace-out FILE.json] [--rev LABEL] [--check BASELINE.json] \
     [--check-tol R] \
     [table1|fig1|fig2|fig3|fig4|fig5|hardness|ablation|combined|batch|analysis|engine|preprocess|tracing|corpus|micro|all]...";
  exit 1

let () =
  let experiments = ref [] in
  let rec parse args =
    match args with
    | [] -> ()
    | "--scale" :: v :: rest ->
      Harness.config.Harness.scale <- float_of_string v;
      parse rest
    | "--tuples" :: v :: rest ->
      Harness.config.Harness.tuples <- int_of_string v;
      parse rest
    | "--limit" :: v :: rest ->
      Harness.config.Harness.member_limit <- int_of_string v;
      parse rest
    | "--timeout" :: v :: rest ->
      Harness.config.Harness.tuple_timeout <- float_of_string v;
      parse rest
    | "--budget" :: v :: rest ->
      Harness.config.Harness.conflict_budget <- int_of_string v;
      parse rest
    | "--seed" :: v :: rest ->
      Harness.config.Harness.seed <- int_of_string v;
      parse rest
    | "--jobs" :: v :: rest ->
      Harness.config.Harness.jobs <- int_of_string v;
      parse rest
    | "--stats-out" :: v :: rest ->
      (* Per-stage stats rows (docs/OBSERVABILITY.md): one JSON line per
         measured closure/encode/enumeration, e.g. BENCH_fig1.json. *)
      Harness.config.Harness.stats_out <- Some v;
      Util.Metrics.set_enabled true;
      parse rest
    | "--trace-out" :: v :: rest ->
      (* Structured event timeline of the whole bench run, written as
         Chrome trace-event JSON on exit (docs/OBSERVABILITY.md). The
         tracing experiment toggles the recorder itself, so its own
         overhead measurements stay unpolluted; everything else records
         into the same buffers until the flush. *)
      Harness.config.Harness.trace_out <- Some v;
      Util.Tracing.set_enabled true;
      at_exit (fun () ->
          Util.Tracing.set_enabled false;
          try
            let oc = open_out v in
            Util.Tracing.write_chrome oc;
            close_out oc
          with Sys_error msg -> Printf.eprintf "bench: --trace-out: %s\n" msg);
      parse rest
    | "--rev" :: v :: rest ->
      (* Revision label stamped into every row's envelope, so committed
         BENCH_*.json files say which checkout produced them. *)
      Harness.config.Harness.rev <- Some v;
      parse rest
    | "--check" :: v :: rest ->
      (* Regression gate (EXPERIMENTS.md): re-run the listed experiments,
         compare the emitted rows against the baseline JSONL within
         per-metric tolerances, exit 1 on regression. *)
      Harness.config.Harness.check <- Some v;
      Util.Metrics.set_enabled true;
      parse rest
    | "--check-tol" :: v :: rest ->
      Harness.config.Harness.check_tol <- float_of_string v;
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | name :: rest ->
      experiments := name :: !experiments;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let experiments =
    match List.rev !experiments with [] -> [ "all" ] | list -> list
  in
  let dispatch = function
    | "table1" -> Experiments.table1 ()
    | "fig1" -> Experiments.fig1 ()
    | "fig2" -> Experiments.fig2 ()
    | "fig3" -> Experiments.fig3 ()
    | "fig4" -> Experiments.fig4 ()
    | "fig5" -> Experiments.fig5 ()
    | "hardness" -> Experiments.hardness ()
    | "ablation" -> Experiments.ablation ()
    | "combined" -> Experiments.combined ()
    | "batch" -> Experiments.batch ()
    | "analysis" -> Experiments.analysis ()
    | "engine" -> Experiments.engine ()
    | "preprocess" -> Experiments.preprocess ()
    | "tracing" -> Experiments.tracing ()
    | "corpus" -> Experiments.corpus ()
    | "micro" -> Micro.run ()
    | "all" ->
      Experiments.table1 ();
      Experiments.fig3 ();  (* includes Figure 1 (the Andersen rows) *)
      Experiments.fig4 ();  (* includes Figure 2 (the Andersen rows) *)
      Experiments.fig5 ();
      Experiments.hardness ();
      Experiments.ablation ();
      Experiments.combined ();
      Experiments.batch ();
      Experiments.analysis ();
      Experiments.engine ();
      Experiments.preprocess ();
      Experiments.tracing ();
      Experiments.corpus ();
      Micro.run ()
    | other ->
      Printf.eprintf "unknown experiment %S\n" other;
      usage ()
  in
  let run name =
    Harness.current_workload := name;
    dispatch name
  in
  Printf.printf
    "why-provenance benchmark harness (scale %.2f, %d tuples/db, %d member cap, %.0fs tuple timeout)\n"
    Harness.config.Harness.scale Harness.config.Harness.tuples
    Harness.config.Harness.member_limit Harness.config.Harness.tuple_timeout;
  List.iter run experiments;
  match Harness.config.Harness.check with
  | None -> ()
  | Some baseline ->
    exit
      (Regress.check ~tol:Harness.config.Harness.check_tol ~baseline
         (List.rev !Harness.collected_rows))
