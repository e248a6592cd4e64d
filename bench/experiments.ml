(* The experiments of the paper's evaluation section: one function per
   table/figure, each printing the same rows/series the paper reports. *)

module D = Datalog
module P = Provenance
module W = Workloads
open Harness

(* --- Table 1 ------------------------------------------------------------ *)

let table1 () =
  header "Table 1 — experimental scenarios";
  row "%-14s | %-40s | %-25s | %s\n" "Scenario" "Databases" "Query type" "Rules";
  row "%s\n" (String.make 95 '-');
  List.iter (fun s -> print_endline (W.Scenario.table1_row s)) (all_scenarios ())

(* --- Figures 1 & 3: building closure + formula -------------------------- *)

let pick_tuples scenario db =
  W.Scenario.pick_answers ~seed:config.seed scenario db config.tuples

let build_rows scenario =
  let program = scenario.W.Scenario.program in
  List.iter
    (fun (db_name, db) ->
      let db = Lazy.force db in
      let model, model_time = time (fun () -> D.Eval.seminaive program db) in
      row "%s / %s: %d facts, model %d facts in %s\n" scenario.W.Scenario.name
        db_name (D.Database.size db) (D.Database.size model) (time_str model_time);
      List.iter
        (fun goal ->
          let _, m = measure_build program model db goal in
          if m.too_large then
            row "  %-28s closure %s (%d nodes, %d hedges) | formula BLOW-UP after %s\n"
              (D.Fact.to_string m.goal) (time_str m.closure_time) m.closure_nodes
              m.closure_hyperedges (time_str m.encode_time)
          else
            row "  %-28s closure %s (%d nodes, %d hedges) | formula %s (%d vars, %d clauses, width %d)\n"
              (D.Fact.to_string m.goal) (time_str m.closure_time) m.closure_nodes
              m.closure_hyperedges (time_str m.encode_time) m.formula_vars
              m.formula_clauses m.elim_width)
        (pick_tuples scenario db))
    scenario.W.Scenario.databases

let fig1 () =
  header "Figure 1 — building the downward closure and the Boolean formula (Andersen)";
  build_rows (andersen ())

let fig3 () =
  header "Figure 3 — building the downward closure and the Boolean formula (all scenarios)";
  List.iter build_rows (all_scenarios ())

(* --- Figures 2 & 4: incremental enumeration delays ---------------------- *)

let delay_rows scenario =
  let program = scenario.W.Scenario.program in
  List.iter
    (fun (db_name, db) ->
      let db = Lazy.force db in
      let model = D.Eval.seminaive program db in
      row "%s / %s (delays in ms; cap %d members, %.0fs timeout)\n"
        scenario.W.Scenario.name db_name config.member_limit config.tuple_timeout;
      row "  %-28s %8s %-8s %9s %9s %9s %9s %9s\n" "tuple" "members" "status"
        "min" "q1" "median" "q3" "max";
      List.iter
        (fun goal ->
          match measure_build program model db goal with
          | Some (closure, encoding), _ ->
            let e = measure_enumeration closure encoding in
            let b = box_of_list (List.map ms e.delays) in
            row "  %-28s %8d %-8s %9.3f %9.3f %9.3f %9.3f %9.3f\n"
              (D.Fact.to_string goal) e.members (status_str e.status) b.min_v
              b.q1 b.median b.q3 b.max_v
          | None, _ ->
            row "  %-28s %8s %-8s (formula blow-up)\n" (D.Fact.to_string goal)
              "-" "-")
        (pick_tuples scenario db))
    scenario.W.Scenario.databases

let fig2 () =
  header "Figure 2 — incremental computation of the why-provenance (Andersen)";
  delay_rows (andersen ())

let fig4 () =
  header "Figure 4 — incremental computation of the why-provenance (all scenarios)";
  List.iter delay_rows (all_scenarios ())

(* --- Figure 5: SAT enumeration vs all-at-once materialization ----------- *)

let fig5 () =
  header
    "Figure 5 — end-to-end: SAT enumeration (on demand) vs materialize-all (Doctors)";
  row "(Doctors queries are linear and non-recursive, so why = why_UN. The\n";
  row " baseline forward-materializes the support families of every model fact,\n";
  row " as the existential-rules engine of Elhalawati et al. does; 'OOM' = it\n";
  row " exceeded its budget of stored sets or the per-tuple timeout.)\n\n";
  row "  %-12s %-22s %9s | %12s | %12s\n" "query" "tuple" "family" "sat-enum"
    "materialize";
  let budget = 1_000_000 in
  List.iter
    (fun scenario ->
      let program = scenario.W.Scenario.program in
      let db = W.Scenario.database scenario "D1" in
      let model = D.Eval.seminaive program db in
      List.iter
        (fun goal ->
          (* End-to-end SAT: closure + formula + exhaustive enumeration. *)
          let members, sat_total =
            time (fun () ->
                let closure = P.Closure.build_with_model program ~model db goal in
                let e = P.Enumerate.of_closure ~max_fill:config.max_fill closure in
                P.Enumerate.to_list ~limit:50_000 e)
          in
          (* End-to-end baseline: full-model provenance materialization
             (reuses the already-computed model, as the baseline tool
             reuses its engine's materialization). *)
          let mat_result, mat_total =
            time (fun () ->
                try
                  `Family
                    (P.Materialize.why_full ~max_members:budget
                       ~deadline:(Unix.gettimeofday () +. config.tuple_timeout)
                       program db goal)
                with P.Materialize.Budget_exceeded -> `Oom)
          in
          let mat_str, agree =
            match mat_result with
            | `Family family ->
              ( time_str mat_total,
                if List.length family = List.length members then ""
                else "  (MISMATCH!)" )
            | `Oom -> (Printf.sprintf "OOM>%s" (time_str mat_total), "")
          in
          row "  %-12s %-22s %9d | %12s | %12s%s\n" scenario.W.Scenario.name
            (D.Fact.to_string goal) (List.length members) (time_str sat_total)
            mat_str agree)
        (pick_tuples scenario db))
    (doctors ())

(* --- NP-hardness instances ---------------------------------------------- *)

let hardness () =
  header "Hardness — deciding NP-hard problems through why-provenance membership";
  row "Hamiltonian cycle via Why-Provenance_UN membership (Lemma 24; SAT pipeline):\n";
  row "  %-10s %8s %8s | %10s %10s | %s\n" "graph" "nodes" "edges" "decide"
    "brute" "agree";
  let rng = Util.Rng.create config.seed in
  List.iter
    (fun nodes ->
      let edges = ref [] in
      for u = 0 to nodes - 1 do
        edges := (u, (u + 1) mod nodes) :: !edges;
        for v = 0 to nodes - 1 do
          if u <> v && Util.Rng.float rng 1.0 < 0.25 then edges := (u, v) :: !edges
        done
      done;
      let edges = List.sort_uniq compare !edges in
      let instance = P.Reductions.of_ham_cycle ~nodes edges in
      let sat_answer, sat_time =
        time (fun () ->
            P.Membership.why_un instance.P.Reductions.program
              instance.P.Reductions.database instance.P.Reductions.goal
              instance.P.Reductions.candidate)
      in
      let brute_answer, brute_time =
        time (fun () -> P.Reductions.ham_cycle_brute_force ~nodes edges)
      in
      row "  %-10s %8d %8d | %10s %10s | %b\n"
        (if sat_answer then "cyclic" else "acyclic")
        nodes (List.length edges) (time_str sat_time) (time_str brute_time)
        (sat_answer = brute_answer))
    [ 4; 6; 8; 10; 12; 14 ];
  row "\n3SAT via Why-Provenance membership (Lemma 17; set-of-sets fixpoint):\n";
  row "  %-26s | %10s | %s\n" "formula" "decide" "answer";
  List.iter
    (fun (nvars, nclauses) ->
      let cnf =
        List.init nclauses (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Util.Rng.int rng nvars in
                if Util.Rng.bool rng then v else -v))
      in
      let instance = P.Reductions.of_3sat ~nvars cnf in
      let answer, t =
        time (fun () ->
            P.Membership.why instance.P.Reductions.program
              instance.P.Reductions.database instance.P.Reductions.goal
              instance.P.Reductions.candidate)
      in
      row "  %2d vars, %2d clauses        | %10s | %s\n" nvars nclauses
        (time_str t)
        (if answer then "satisfiable" else "unsatisfiable"))
    [ (3, 5); (4, 8); (5, 12) ]

(* --- Ablations ----------------------------------------------------------- *)

let ablation () =
  header "Ablation — acyclicity encodings (vertex elimination vs transitive closure)";
  row "  %-14s %-22s | %10s %10s %12s | %10s %10s %12s\n" "scenario" "tuple"
    "VE vars" "VE cls" "VE 50 membs" "TC vars" "TC cls" "TC 50 membs";
  let run_one scenario db_name =
    let scenario = scenario in
    let program = scenario.W.Scenario.program in
    let db = W.Scenario.database scenario db_name in
    let model = D.Eval.seminaive program db in
    let goals = pick_tuples scenario db in
    List.iter
      (fun goal ->
        let closure = P.Closure.build_with_model program ~model db goal in
        let measure acyclicity =
          try
            let encoding =
              P.Encode.make ~acyclicity ~max_fill:config.max_fill closure
            in
            let st = P.Encode.stats encoding in
            let e = P.Enumerate.of_parts closure encoding in
            let _, t =
              time (fun () -> P.Enumerate.to_list ~limit:50 e)
            in
            Some (st.P.Encode.variables, st.P.Encode.clauses, t)
          with P.Encode.Too_large _ -> None
        in
        let fmt = function
          | Some (vars, clauses, t) ->
            Printf.sprintf "%10d %10d %12s" vars clauses (time_str t)
          | None -> Printf.sprintf "%10s %10s %12s" "-" "-" "BLOW-UP"
        in
        row "  %-14s %-22s | %s | %s\n" scenario.W.Scenario.name
          (D.Fact.to_string goal)
          (fmt (measure P.Encode.Vertex_elimination))
          (fmt (measure P.Encode.Transitive_closure)))
      goals
  in
  run_one (transclosure ()) "bitcoin";
  run_one (transclosure ()) "facebook";
  run_one (galen ()) "D1";
  row "\nAblation — vertex-elimination ordering (min-degree vs input order)\n";
  row "  %-14s %-22s | %8s %10s | %8s %10s\n" "scenario" "tuple" "MD width"
    "MD clauses" "IN width" "IN clauses";
  let order_one scenario db_name =
    let program = scenario.W.Scenario.program in
    let db = W.Scenario.database scenario db_name in
    let model = D.Eval.seminaive program db in
    List.iter
      (fun goal ->
        let closure = P.Closure.build_with_model program ~model db goal in
        let measure order =
          try
            let st =
              P.Encode.stats
                (P.Encode.make ~elimination_order:order
                   ~max_fill:config.max_fill closure)
            in
            Printf.sprintf "%8d %10d" st.P.Encode.elimination_width
              st.P.Encode.clauses
          with P.Encode.Too_large _ -> Printf.sprintf "%8s %10s" "-" "BLOW-UP"
        in
        row "  %-14s %-22s | %s | %s\n" scenario.W.Scenario.name
          (D.Fact.to_string goal)
          (measure P.Encode.Min_degree)
          (measure P.Encode.Input_order))
      (pick_tuples scenario db |> List.filteri (fun i _ -> i < 3))
  in
  order_one (transclosure ()) "facebook";
  order_one (galen ()) "D1";
  row "\nAblation — CDCL vs plain DPLL on the first member search\n";
  row "  %-14s %-22s | %10s | %10s\n" "scenario" "tuple" "CDCL" "DPLL";
  let dpll_one scenario db_name =
    let program = scenario.W.Scenario.program in
    let db = W.Scenario.database scenario db_name in
    let model = D.Eval.seminaive program db in
    List.iter
      (fun goal ->
        let closure = P.Closure.build_with_model program ~model db goal in
        let encoding = P.Encode.make closure in
        let clauses = ref [] in
        (* Re-encode through DIMACS so DPLL sees the same formula. *)
        let solver = P.Encode.solver encoding in
        ignore solver;
        (* The encoding does not expose raw clauses; rebuild a fresh
           small formula by enumerating via CDCL and timing only the
           first-member search on each side. *)
        ignore clauses;
        let _, cdcl_time =
          time (fun () ->
              let e = P.Enumerate.of_closure closure in
              P.Enumerate.next e)
        in
        let dpll_time = Dpll_bridge.first_member_time closure in
        row "  %-14s %-22s | %10s | %10s\n" scenario.W.Scenario.name
          (D.Fact.to_string goal) (time_str cdcl_time)
          (match dpll_time with
          | Some t -> time_str t
          | None -> "> 5s (cut)"))
      (pick_tuples scenario db |> List.filteri (fun i _ -> i < 3))
  in
  dpll_one (List.nth (doctors ()) 0) "D1"

(* --- Combined complexity (the paper's open direction) ------------------- *)

let combined () =
  header
    "Combined complexity — growing the query (the paper's open question)";
  row "Union-chain queries ans_L with 2^L members over a fixed database:\n";
  row "  %-3s %8s %9s | %10s %10s %12s | %10s %8s\n" "L" "members" "family"
    "closure" "formula" "enumerate" "FO compile" "cq count";
  List.iter
    (fun levels ->
      (* p0(X) :- e0(X);  p_i(X) :- p_{i-1}(X), e_i(X) | f_i(X). *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf "p0(X) :- e0(X).\n";
      for i = 1 to levels do
        Buffer.add_string buf (Printf.sprintf "p%d(X) :- p%d(X), e%d(X).\n" i (i - 1) i);
        Buffer.add_string buf (Printf.sprintf "p%d(X) :- p%d(X), f%d(X).\n" i (i - 1) i)
      done;
      let program = fst (D.Parser.program_of_string (Buffer.contents buf)) in
      let facts =
        D.Fact.of_strings "e0" [ "c" ]
        :: List.concat
             (List.init levels (fun i ->
                  [ D.Fact.of_strings (Printf.sprintf "e%d" (i + 1)) [ "c" ];
                    D.Fact.of_strings (Printf.sprintf "f%d" (i + 1)) [ "c" ] ]))
      in
      let db = D.Database.of_list facts in
      let goal = D.Fact.make (D.Symbol.intern (Printf.sprintf "p%d" levels)) [| D.Symbol.intern "c" |] in
      let closure, t_closure = time (fun () -> P.Closure.build program db goal) in
      let encoding, t_encode = time (fun () -> P.Encode.make closure) in
      let members, t_enum =
        time (fun () ->
            P.Enumerate.to_list ~limit:100_000 (P.Enumerate.of_parts closure encoding))
      in
      let fo =
        if levels <= 6 then
          let r, t =
            time (fun () ->
                P.Fo_rewrite.compile program
                  (D.Symbol.intern (Printf.sprintf "p%d" levels)))
          in
          Printf.sprintf "%10s %8d" (time_str t) (P.Fo_rewrite.cq_count r)
        else Printf.sprintf "%10s %8s" "-" "-"
      in
      row "  %-3d %8d %9d | %10s %10s %12s | %s\n" levels
        (List.length members) (List.length members) (time_str t_closure)
        (time_str t_encode) (time_str t_enum) fo)
    [ 2; 4; 6; 8; 10; 12; 14 ]

(* --- Batch enumeration: shared materialization + worker fan-out ---------- *)

let batch () =
  header
    (Printf.sprintf
       "Batch — multi-tuple enumeration off one materialization, 1 vs %d worker(s)"
       config.jobs);
  row "  %-14s %-6s %7s %8s | %10s %10s %7s | %9s %s\n" "scenario" "db"
    "tuples" "members" "1 worker" (Printf.sprintf "%d workers" config.jobs)
    "speedup" "cache" "identical";
  List.iter
    (fun scenario ->
      let program = scenario.W.Scenario.program in
      List.iter
        (fun (db_name, db) ->
          let db = Lazy.force db in
          let spec = P.Batch.Facts (pick_tuples scenario db) in
          let run jobs =
            stats_begin ();
            let outcome, total_s =
              time (fun () ->
                  P.Batch.run ~jobs ~limit:config.member_limit
                    ~conflict_budget:config.conflict_budget
                    ~max_fill:config.max_fill program db spec)
            in
            let members =
              List.fold_left
                (fun acc (r : P.Batch.result) ->
                  acc + List.length r.P.Batch.members)
                0 outcome.P.Batch.results
            in
            emit_stats_row "batch"
              Metrics.Json.
                [
                  ("scenario", Str scenario.W.Scenario.name);
                  ("db", Str db_name);
                  ("jobs", Num (float_of_int outcome.P.Batch.jobs));
                  ("tuples", Num (float_of_int (List.length outcome.P.Batch.results)));
                  ("members", Num (float_of_int members));
                  ("total_s", Num total_s);
                  ("materialize_s", Num outcome.P.Batch.materialize_s);
                  ("closures_s", Num outcome.P.Batch.closures_s);
                  ("fanout_s", Num outcome.P.Batch.fanout_s);
                  ("cache_hits", Num (float_of_int outcome.P.Batch.cache_hits));
                  ("cache_misses", Num (float_of_int outcome.P.Batch.cache_misses));
                ];
            (outcome, members, total_s)
          in
          let o1, members1, t1 = run 1 in
          let on, membersn, tn = run config.jobs in
          let identical =
            List.length o1.P.Batch.results = List.length on.P.Batch.results
            && List.for_all2
                 (fun (a : P.Batch.result) (b : P.Batch.result) ->
                   D.Fact.equal a.P.Batch.fact b.P.Batch.fact
                   && List.length a.P.Batch.members = List.length b.P.Batch.members
                   && List.for_all2 D.Fact.Set.equal a.P.Batch.members
                        b.P.Batch.members)
                 o1.P.Batch.results on.P.Batch.results
          in
          ignore members1;
          row "  %-14s %-6s %7d %8d | %10s %10s %6.2fx | %4d/%-4d %s\n"
            scenario.W.Scenario.name db_name
            (List.length o1.P.Batch.results)
            membersn (time_str t1) (time_str tn) (t1 /. tn)
            on.P.Batch.cache_hits
            (on.P.Batch.cache_hits + on.P.Batch.cache_misses)
            (if identical then "yes" else "NO — BUG"))
        scenario.W.Scenario.databases)
    [ transclosure (); andersen () ]

(* --- Engine: structural vs interned flat-tuple semi-naive ---------------- *)

(* One row per (workload, size): the same program and database evaluated
   by the flat-tuple engine (Eval.seminaive) and by its structural
   predecessor, now the differential oracle (Harden.Oracle.seminaive).
   Sizes are absolute fact targets fed to the generators' [?facts] knob;
   models are compared as sets and ranks as tables, so every row doubles
   as a large-scale differential test. Peak live words are sampled by a Gc alarm at the
   end of each major cycle — an engine's resident join state, not
   transient allocation. *)

let engine () =
  header "Engine — structural vs interned flat-tuple semi-naive";
  row "  %-14s %8s %9s %6s | %9s %9s %7s | %11s %11s | %9s %9s %s\n" "workload"
    "facts" "model" "rounds" "flat" "struct" "speedup" "flat f/s" "struct f/s"
    "flat MW" "struct MW" "identical";
  let measure_engine run =
    Gc.compact ();
    let peak = ref 0 in
    let alarm =
      Gc.create_alarm (fun () ->
          peak := max !peak (Gc.quick_stat ()).Gc.live_words)
    in
    let ranks : int D.Fact.Table.t = D.Fact.Table.create 1024 in
    let (model : D.Database.t), seconds = time (fun () -> run ranks) in
    (* Evaluation is deterministic, so re-runs only serve to shake
       scheduling/GC noise out of the clock: take the best of up to
       three, stopping once a further run would push past ~2s. *)
    let best = ref seconds in
    let reps = ref 1 in
    while !reps < 3 && !best *. float_of_int (!reps + 1) < 2.0 do
      let throwaway : int D.Fact.Table.t = D.Fact.Table.create 1024 in
      let _, t = time (fun () -> run throwaway) in
      best := min !best t;
      incr reps
    done;
    Gc.delete_alarm alarm;
    peak := max !peak (Gc.quick_stat ()).Gc.live_words;
    let rounds = D.Fact.Table.fold (fun _ r acc -> max r acc) ranks 0 in
    (model, ranks, !best, rounds, !peak)
  in
  let bench name sizes program (db_of_size : int -> D.Database.t) =
    List.iter
      (fun size ->
        stats_begin ();
        let db = db_of_size size in
        let facts = D.Database.size db in
        let model_new, ranks_new, new_s, rounds, peak_new =
          measure_engine (fun ranks -> D.Eval.seminaive ~ranks program db)
        in
        let model_old, ranks_old, old_s, rounds_old, peak_old =
          measure_engine (fun ranks ->
              Harden.Oracle.seminaive ~ranks program db)
        in
        let identical =
          D.Fact.Set.equal (D.Database.to_set model_new)
            (D.Database.to_set model_old)
          && rounds = rounds_old
          && D.Fact.Table.length ranks_new = D.Fact.Table.length ranks_old
          && D.Fact.Table.fold
               (fun f r acc ->
                 acc && D.Fact.Table.find_opt ranks_old f = Some r)
               ranks_new true
        in
        let derived = D.Database.size model_new - facts in
        let per_s t = float_of_int derived /. t in
        let speedup = old_s /. new_s in
        emit_stats_row "engine"
          Metrics.Json.
            [
              ("workload", Str name);
              ("facts", Num (float_of_int facts));
              ("model", Num (float_of_int (D.Database.size model_new)));
              ("derived", Num (float_of_int derived));
              ("rounds", Num (float_of_int rounds));
              ("new_s", Num new_s);
              ("old_s", Num old_s);
              ("speedup", Num speedup);
              ("new_rounds_per_s", Num (float_of_int rounds /. new_s));
              ("old_rounds_per_s", Num (float_of_int rounds /. old_s));
              ("new_derived_per_s", Num (per_s new_s));
              ("old_derived_per_s", Num (per_s old_s));
              ("new_peak_live_words", Num (float_of_int peak_new));
              ("old_peak_live_words", Num (float_of_int peak_old));
              ("identical", Bool identical);
            ];
        row "  %-14s %8d %9d %6d | %9s %9s %6.2fx | %11.0f %11.0f | %8.1fM %8.1fM %s\n"
          name facts
          (D.Database.size model_new)
          rounds (time_str new_s) (time_str old_s) speedup (per_s new_s)
          (per_s old_s)
          (float_of_int peak_new /. 1e6)
          (float_of_int peak_old /. 1e6)
          (if identical then "yes" else "NO — BUG"))
      sizes
  in
  let scaled sizes =
    List.filter_map
      (fun s ->
        let s = int_of_float (float_of_int s *. config.scale) in
        if s >= 10 then Some s else None)
      sizes
  in
  let tc = W.Transclosure.scenario () in
  bench "TransClosure"
    (scaled [ 1_000; 10_000; 100_000 ])
    tc.W.Scenario.program
    (fun n -> W.Transclosure.bitcoin_like ~facts:n ~seed:(config.seed + 1) ());
  let csda = W.Csda.scenario () in
  bench "CSDA"
    (scaled [ 1_000; 10_000; 100_000 ])
    csda.W.Scenario.program
    (fun n ->
      W.Csda.dataflow_graph ~facts:n ~seed:(config.seed + 2) ~points:0 ());
  let andersen = W.Andersen.scenario () in
  bench "Andersen"
    (scaled [ 1_000; 10_000; 100_000 ])
    andersen.W.Scenario.program
    (fun n -> W.Andersen.statements ~facts:n ~seed:(config.seed + 3) ~vars:0 ());
  (* Galen saturates quadratically in the taxonomy depth (sco is dense),
     so its sizes stop at 10⁴ facts — larger targets are out of reach
     for either engine, not a property of this refactor. *)
  let galen = W.Galen.scenario () in
  bench "Galen"
    (scaled [ 1_000; 3_000; 10_000 ])
    galen.W.Scenario.program
    (fun n -> W.Galen.ontology ~facts:n ~seed:(config.seed + 4) ~classes:0 ());
  match W.Doctors.scenarios () with
  | [] -> ()
  | doctors :: _ ->
    bench "Doctors-1"
      (scaled [ 1_000; 10_000; 100_000 ])
      doctors.W.Scenario.program
      (fun n -> W.Doctors.database ~facts:n ~seed:(config.seed + 5) ())

(* --- Preprocessing: SatELite-style simplification payoff ----------------- *)

(* One row per (scenario, db, tuple): the formula size before and after
   Sat.Preprocess (variables eliminated, clauses subsumed), then the
   exhaustive-enumeration wall time of the raw formula and of the
   preprocessed one (the default). The member counts of the two runs
   must agree: preprocessing freezes the db-fact selectors,
   so why_UN is invariant (the qcheck differentials in
   test_preprocess.ml prove this exhaustively on small instances). *)
let preprocess () =
  header "Preprocess — SatELite-style simplification (BVE + subsumption + equivalent literals)";
  row "  %-14s %-22s | %6s %6s %5s %5s %5s | %9s %9s | %7s %s\n" "scenario"
    "tuple" "cls" "cls'" "elim" "subs" "strv" "enum-raw" "enum-pre" "membs"
    "agree";
  let bench_one scenario db_name db =
    let program = scenario.W.Scenario.program in
    let model = D.Eval.seminaive program db in
    List.iter
      (fun goal ->
        stats_begin ();
        let closure = P.Closure.build_with_model program ~model db goal in
        let measure ~preprocess =
          try
            let encoding, encode_s =
              time (fun () ->
                  P.Encode.make ~preprocess ~max_fill:config.max_fill closure)
            in
            let e = P.Enumerate.of_parts closure encoding in
            let members, enum_s =
              time (fun () ->
                  P.Enumerate.to_list ~limit:config.member_limit e)
            in
            Some (encoding, encode_s, enum_s, List.length members)
          with P.Encode.Too_large _ -> None
        in
        match (measure ~preprocess:false, measure ~preprocess:true) with
        | Some (raw_enc, raw_encode_s, raw_s, raw_n),
          Some (pre_enc, pre_encode_s, pre_s, pre_n) ->
          let raw_st = P.Encode.stats raw_enc in
          let agree = raw_n = pre_n in
          (* Post-simplification size comes from the preprocessor's own
             stats: Encode.stats.clauses always describes the original
             formula so the observability schema stays encoding-stable. *)
          let ps =
            match (P.Encode.stats pre_enc).P.Encode.preprocess with
            | Some ps -> ps
            | None -> assert false
          in
          emit_stats_row "preprocess"
            Metrics.Json.
              [
                ("scenario", Str scenario.W.Scenario.name);
                ("db", Str db_name);
                ("goal", Str (D.Fact.to_string goal));
                ("vars", Num (float_of_int raw_st.P.Encode.variables));
                ("clauses", Num (float_of_int ps.Sat.Preprocess.original_clauses));
                ("literals", Num (float_of_int ps.Sat.Preprocess.original_literals));
                ("clauses_pre", Num (float_of_int ps.Sat.Preprocess.clauses));
                ("literals_pre", Num (float_of_int ps.Sat.Preprocess.literals));
                ("eliminated_vars", Num (float_of_int ps.Sat.Preprocess.eliminated_vars));
                ("fixed_vars", Num (float_of_int ps.Sat.Preprocess.fixed_vars));
                ("subsumed_clauses", Num (float_of_int ps.Sat.Preprocess.subsumed_clauses));
                ("strengthened_clauses",
                 Num (float_of_int ps.Sat.Preprocess.strengthened_clauses));
                ("rounds", Num (float_of_int ps.Sat.Preprocess.rounds));
                ("encode_raw_s", Num raw_encode_s);
                ("encode_pre_s", Num pre_encode_s);
                ("enum_raw_s", Num raw_s);
                ("enum_pre_s", Num pre_s);
                ("members", Num (float_of_int pre_n));
                ("identical", Bool agree);
              ];
          row "  %-14s %-22s | %6d %6d %5d %5d %5d | %9s %9s | %7d %s\n"
            scenario.W.Scenario.name (D.Fact.to_string goal)
            ps.Sat.Preprocess.original_clauses ps.Sat.Preprocess.clauses
            ps.Sat.Preprocess.eliminated_vars ps.Sat.Preprocess.subsumed_clauses
            ps.Sat.Preprocess.strengthened_clauses (time_str raw_s)
            (time_str pre_s) pre_n
            (if agree then "yes" else "NO — BUG")
        | _ ->
          row "  %-14s %-22s | formula BLOW-UP\n" scenario.W.Scenario.name
            (D.Fact.to_string goal))
      (pick_tuples scenario db)
  in
  List.iter
    (fun scenario ->
      List.iter
        (fun (db_name, db) -> bench_one scenario db_name (Lazy.force db))
        scenario.W.Scenario.databases)
    ([ transclosure (); andersen () ] @ [ List.hd (doctors ()) ])

(* --- Analysis: classifier cost and encoding-selection payoff ------------ *)

(* --- Tracing overhead ---------------------------------------------------- *)

(* Mirrors the metrics:* overhead kernels at experiment granularity: one
   model + closure + encode + first-member pipeline on a small Andersen
   instance, run with the event recorder off (twice — the second run
   bounds the disabled-mode cost, which is one atomic-flag branch per
   span site and must stay under the 2% satellite budget) and on (the
   enabled-mode ring-buffer cost, recorded in BENCH_tracing.json via
   --stats-out). *)
let tracing () =
  header "Tracing — structured event layer overhead (docs/OBSERVABILITY.md)";
  let scenario = W.Andersen.scenario () in
  let program = scenario.W.Scenario.program in
  let db = W.Andersen.statements ~seed:7 ~vars:120 () in
  let goal =
    match W.Scenario.pick_answers ~seed:3 scenario db 1 with
    | goal :: _ -> goal
    | [] -> assert false
  in
  let kernel () =
    let model = D.Eval.seminaive program db in
    let closure = P.Closure.build_with_model program ~model db goal in
    match P.Encode.make ~max_fill:config.max_fill closure with
    | exception P.Encode.Too_large _ -> ()
    | encoding ->
      let e = P.Enumerate.of_parts closure encoding in
      ignore (P.Enumerate.next e)
  in
  let reps = 11 in
  let iters = 20 in
  (* Each timed sample runs the kernel [iters] times: at ~0.7ms/kernel
     a single run is within scheduler-jitter range, a 20-run batch is
     not. The ring is reset per sample so it never wraps. *)
  let sample enabled =
    Util.Tracing.reset ();
    Util.Tracing.set_enabled enabled;
    let (), t =
      time (fun () ->
          for _ = 1 to iters do
            kernel ()
          done)
    in
    Util.Tracing.set_enabled false;
    t /. float_of_int iters
  in
  stats_begin ();
  kernel () (* warm-up: caches, allocator *);
  (* Interleave the three modes round-robin and keep each mode's best
     run: the minimum is the least-noise estimator for a fixed-work
     kernel, and interleaving keeps slow machine-state drift (GC heap
     growth, frequency scaling) out of the off1/off2 difference, which
     is meant to bracket the cost of the dormant span sites only. *)
  let best = [| infinity; infinity; infinity |] in
  for _ = 1 to reps do
    List.iteri
      (fun i enabled -> best.(i) <- Float.min best.(i) (sample enabled))
      [ false; false; true ]
  done;
  let off1 = best.(0) and off2 = best.(1) and on_ = best.(2) in
  let events =
    Util.Tracing.reset ();
    Util.Tracing.set_enabled true;
    kernel ();
    Util.Tracing.set_enabled false;
    let n = List.length (Util.Tracing.events ()) in
    Util.Tracing.reset ();
    n
  in
  let baseline = Float.min off1 off2 in
  let drift = Float.abs (off2 -. off1) /. baseline in
  let on_overhead = (on_ -. baseline) /. baseline in
  row "  kernel: Andersen model + closure + encode + first member (vars=120)\n";
  row "  disabled (run 1)   %s/run\n" (time_str off1);
  row "  disabled (run 2)   %s/run   drift %.2f%% — budget < 2%%: %s\n"
    (time_str off2) (100.0 *. drift)
    (if drift < 0.02 then "PASS" else "WARN (machine noise)");
  row "  enabled            %s/run   overhead %.2f%% (%d events/run)\n"
    (time_str on_) (100.0 *. on_overhead) events;
  emit_stats_row "tracing"
    Metrics.Json.
      [
        ("kernel", Str "andersen:model+closure+encode+first-member");
        ("disabled_s", Num baseline);
        ("disabled_run2_s", Num (Float.max off1 off2));
        ("disabled_drift", Num drift);
        ("disabled_within_budget", Bool (drift < 0.02));
        ("enabled_s", Num on_);
        ("enabled_overhead", Num on_overhead);
        ("events_per_run", Num (float_of_int events));
      ]

let analysis () =
  header "Analysis — static classifier and analysis-driven encoding selection";
  row "(auto = Encode.make with the acyclicity choice left to the analyzer;\n";
  row " forced = Vertex_elimination unconditionally. For non-recursive programs\n";
  row " the auto encoding drops every acyclicity clause; the enumerated member\n";
  row " sets must be identical either way. Exhausted enumerations are compared\n";
  row " set-to-set; capped ones by cross-membership of the auto prefix.)\n\n";
  row "  %-14s %-8s %9s | %9s %9s | %9s %9s | %9s %9s %s\n" "scenario" "class"
    "analyze" "auto vars" "auto cls" "VE vars" "VE cls" "auto enum" "VE enum"
    "identical";
  let module A = Whyprov_analysis in
  List.iter
    (fun scenario ->
      let program = scenario.W.Scenario.program in
      let classification, analyze_s = time (fun () -> A.Classify.classify program) in
      let cls = A.Classify.cls_name classification.A.Classify.cls in
      let db_name, db = List.hd scenario.W.Scenario.databases in
      let db = Lazy.force db in
      let model = D.Eval.seminaive program db in
      List.iter
        (fun goal ->
          stats_begin ();
          let closure = P.Closure.build_with_model program ~model db goal in
          let measure acyclicity =
            try
              let encoding =
                P.Encode.make ?acyclicity ~max_fill:config.max_fill closure
              in
              let st = P.Encode.stats encoding in
              let e = P.Enumerate.of_parts closure encoding in
              let members, t = time (fun () -> P.Enumerate.to_list ~limit:50 e) in
              Some (st.P.Encode.variables, st.P.Encode.clauses, t, members)
            with P.Encode.Too_large _ -> None
          in
          let auto = measure None in
          let forced = measure (Some P.Encode.Vertex_elimination) in
          let identical =
            match (auto, forced) with
            | Some (_, _, _, m1), Some (_, _, _, m2) ->
              let n1 = List.length m1 and n2 = List.length m2 in
              if n1 < 50 && n2 < 50 then begin
                (* both exhausted: the families must coincide as sets *)
                let s1 = List.sort D.Fact.Set.compare m1
                and s2 = List.sort D.Fact.Set.compare m2 in
                if n1 = n2 && List.for_all2 D.Fact.Set.equal s1 s2 then "yes"
                else "NO — BUG"
              end
              else if n1 < 50 || n2 < 50 then
                (* one exhausted below the cap while the other hit it *)
                "NO — BUG"
              else begin
                (* both capped: solver order differs between encodings, so
                   compare by membership of the auto prefix under the
                   forced encoding *)
                let checker =
                  P.Enumerate.of_closure
                    ~acyclicity:P.Encode.Vertex_elimination
                    ~max_fill:config.max_fill closure
                in
                if List.for_all (P.Enumerate.member checker) m1 then
                  "yes (prefix)"
                else "NO — BUG"
              end
            | _ -> "-"
          in
          (match (auto, forced) with
          | Some (av, ac, at, _), Some (fv, fc, ft, _) ->
            emit_stats_row "analysis"
              Metrics.Json.
                [
                  ("scenario", Str scenario.W.Scenario.name);
                  ("db", Str db_name);
                  ("goal", Str (D.Fact.to_string goal));
                  ("class", Str cls);
                  ("analyze_s", Num analyze_s);
                  ("auto_vars", Num (float_of_int av));
                  ("auto_clauses", Num (float_of_int ac));
                  ("auto_enum_s", Num at);
                  ("ve_vars", Num (float_of_int fv));
                  ("ve_clauses", Num (float_of_int fc));
                  ("ve_enum_s", Num ft);
                  ("identical", Bool (identical <> "NO — BUG"));
                ];
            row "  %-14s %-8s %9s | %9d %9d | %9d %9d | %9s %9s %s\n"
              scenario.W.Scenario.name cls (time_str analyze_s) av ac fv fc
              (time_str at) (time_str ft) identical
          | _ ->
            row "  %-14s %-8s %9s | formula BLOW-UP\n" scenario.W.Scenario.name
              cls (time_str analyze_s)))
        (pick_tuples scenario db))
    (all_scenarios ())

(* --- Corpus: hardening instance families across solver configs ---------- *)

(* The corpus runner (docs/HARDENING.md) over a deterministic spread of
   generated instances — pigeonhole, Tseytin xor-chains, grid
   colorings, phase-transition random 3-CNF — solved under every named
   solver configuration with preprocessing on and off. Every answer is
   cross-checked (models evaluated on the original clauses, UNSATs
   DRAT-certified), so a nonzero failure column is a solver bug, not a
   slow row. One stats row per (config, instance) with --stats-out
   (BENCH_corpus.json). *)
let corpus () =
  header "Corpus — hardening instance families across solver configurations";
  let rng = Util.Rng.create config.seed in
  let nv = max 10 (int_of_float (50.0 *. config.scale)) in
  let instances =
    [
      ("php54", Harden.Gen.pigeonhole ~pigeons:5 ~holes:4);
      ("php65", Harden.Gen.pigeonhole ~pigeons:6 ~holes:5);
      ("php66", Harden.Gen.pigeonhole ~pigeons:6 ~holes:6);
      ("xor24-unsat", Harden.Gen.xor_chain ~length:24 ~sat:false);
      ("xor24-sat", Harden.Gen.xor_chain ~length:24 ~sat:true);
      ("grid663", Harden.Gen.grid_coloring ~width:6 ~height:6 ~colors:3);
      ("grid441", Harden.Gen.grid_coloring ~width:4 ~height:4 ~colors:1);
      ("r3-a", Harden.Gen.random_kcnf rng ~nvars:nv ~ratio:4.26);
      ("r3-b", Harden.Gen.random_kcnf rng ~nvars:nv ~ratio:4.26);
      ("unit", Harden.Gen.unit_conflict ());
    ]
  in
  row "  %-18s %-4s | %4s %5s %8s %5s | %9s %9s\n" "config" "pre" "sat"
    "unsat" "timeout" "fail" "total" "max";
  let configs = Harden.Fuzz.panel_configs in
  List.iter
    (fun (name, cfg) ->
      List.iter
        (fun preprocess ->
          stats_begin ();
          let opts =
            {
              Harden.Corpus.default_opts with
              config_name = name;
              config = cfg;
              preprocess;
              timeout_s = config.tuple_timeout;
            }
          in
          let report = Harden.Corpus.run_list opts instances in
          let total =
            List.fold_left
              (fun acc i -> acc +. i.Harden.Corpus.time_s)
              0.0 report.Harden.Corpus.instances
          in
          let max_t =
            List.fold_left
              (fun acc i -> Float.max acc i.Harden.Corpus.time_s)
              0.0 report.Harden.Corpus.instances
          in
          List.iter
            (fun (i : Harden.Corpus.instance) ->
              emit_stats_row "corpus"
                Metrics.Json.
                  [
                    ("config", Str name);
                    ("preprocess", Bool preprocess);
                    ("instance", Str i.Harden.Corpus.name);
                    ( "outcome",
                      Str (Harden.Corpus.outcome_label i.Harden.Corpus.outcome)
                    );
                    ("time_s", Num i.Harden.Corpus.time_s);
                    ("conflicts", Num (float_of_int i.Harden.Corpus.conflicts));
                  ])
            report.Harden.Corpus.instances;
          row "  %-18s %-4s | %4d %5d %8d %5d | %9s %9s%s\n" name
            (if preprocess then "yes" else "no")
            report.Harden.Corpus.sat report.Harden.Corpus.unsat
            report.Harden.Corpus.timeouts report.Harden.Corpus.failures
            (time_str total) (time_str max_t)
            (if report.Harden.Corpus.failures > 0 then "  <-- BUG" else ""))
        [ true; false ])
    configs
