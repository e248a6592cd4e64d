(* Bechamel micro-benchmarks: one [Test.make] per table/figure of the
   paper, exercising the kernel that experiment stresses on a small
   fixed instance, so regressions in any stage of the pipeline are
   visible as ns/run numbers. *)

module D = Datalog
module P = Provenance
module W = Workloads
open Bechamel
open Toolkit

(* Small fixed fixtures (built once, outside the timed region). *)

let andersen_fixture =
  lazy
    (let scenario = W.Andersen.scenario () in
     let db = W.Andersen.statements ~seed:7 ~vars:120 () in
     let program = scenario.W.Scenario.program in
     let model = D.Eval.seminaive program db in
     let goal =
       match W.Scenario.pick_answers ~seed:3 scenario db 50 with
       | goals -> (
         (* Prefer a goal with a non-trivial closure. *)
         let best =
           List.fold_left
             (fun acc g ->
               let c = P.Closure.build_with_model program ~model db g in
               match acc with
               | Some (_, n) when n >= P.Closure.num_nodes c -> acc
               | _ -> Some (g, P.Closure.num_nodes c))
             None goals
         in
         match best with Some (g, _) -> g | None -> assert false)
     in
     (program, db, model, goal))

let doctors_fixture =
  lazy
    (let scenario = List.hd (W.Doctors.scenarios ~scale:0.05 ()) in
     let program = scenario.W.Scenario.program in
     let db = W.Scenario.database scenario "D1" in
     let model = D.Eval.seminaive program db in
     let goal = List.hd (W.Scenario.pick_answers ~seed:3 scenario db 1) in
     (program, db, model, goal))

(* Preprocessing kernels on the captured Andersen formula: the raw
   occurrence-list build (every technique off, so load + top-level
   propagation only), one backward subsumption + self-subsumption
   pass, and the resolvent distribution of a single bounded variable
   elimination (bve_max_elim=1 isolates one occurrence-sorted pivot on
   top of the build). *)
let preprocess_tests closure =
  let encoding = P.Encode.make ~capture:true ~preprocess:false closure in
  let raw_clauses =
    match P.Encode.captured_clauses encoding with
    | Some clauses -> clauses
    | None -> assert false
  in
  let nvars = (P.Encode.stats encoding).P.Encode.variables in
  let none _ = false in
  let cfg ~subsumption ~bve ?(bve_max_elim = max_int) () =
    {
      Sat.Preprocess.default with
      subsumption;
      self_subsumption = subsumption;
      bve;
      bve_max_elim;
    }
  in
  let kernel config () =
    ignore (Sat.Preprocess.simplify ~config ~nvars ~frozen:none raw_clauses)
  in
  [
    Test.make ~name:"preprocess:occurrence-build"
      (Staged.stage (kernel (cfg ~subsumption:false ~bve:false ())));
    Test.make ~name:"preprocess:subsumption-pass"
      (Staged.stage (kernel (cfg ~subsumption:true ~bve:false ())));
    Test.make ~name:"preprocess:bve-one-var"
      (Staged.stage
         (kernel (cfg ~subsumption:false ~bve:true ~bve_max_elim:1 ())));
  ]

let tests () =
  let program, db, model, goal = Lazy.force andersen_fixture in
  let dprogram, ddb, dmodel, dgoal = Lazy.force doctors_fixture in
  let closure = P.Closure.build_with_model program ~model db goal in
  let dclosure = P.Closure.build_with_model dprogram ~model:dmodel ddb dgoal in
  preprocess_tests closure
  @ [
    (* Table 1: program classification over the five programs. *)
    Test.make ~name:"table1:classify"
      (Staged.stage (fun () ->
           List.iter
             (fun s ->
               ignore (D.Program.query_class s.W.Scenario.program))
             (W.Transclosure.scenario () :: W.Doctors.scenarios ~scale:0.01 ())));
    (* Figure 1/3 kernels: model step, closure, formula. *)
    Test.make ~name:"fig1:seminaive-model"
      (Staged.stage (fun () -> ignore (D.Eval.seminaive program db)));
    Test.make ~name:"fig1:downward-closure"
      (Staged.stage (fun () ->
           ignore (P.Closure.build_with_model program ~model db goal)));
    Test.make ~name:"fig1:encode-formula"
      (Staged.stage (fun () -> ignore (P.Encode.make closure)));
    (* Figure 2/4 kernel: first member of the enumeration. *)
    Test.make ~name:"fig2:first-member"
      (Staged.stage (fun () ->
           let e = P.Enumerate.of_closure closure in
           ignore (P.Enumerate.next e)));
    (* Figure 5 kernels: exhaustive enumeration vs materialization. *)
    Test.make ~name:"fig5:sat-enumerate-all"
      (Staged.stage (fun () ->
           let e = P.Enumerate.of_closure dclosure in
           ignore (P.Enumerate.to_list ~limit:10_000 e)));
    Test.make ~name:"fig5:materialize-all"
      (Staged.stage (fun () ->
           ignore (P.Materialize.why_of_closure ~max_members:1_000_000 dclosure)));
    (* Hardness kernel: Hamiltonian-cycle membership on a small graph. *)
    Test.make ~name:"hardness:ham-cycle-n6"
      (Staged.stage
         (let instance =
            P.Reductions.of_ham_cycle ~nodes:6
              [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0); (0, 3); (2, 5) ]
          in
          fun () ->
            ignore
              (P.Membership.why_un instance.P.Reductions.program
                 instance.P.Reductions.database instance.P.Reductions.goal
                 instance.P.Reductions.candidate)));
    (* Observability kernels: the same semi-naive evaluation with the
       metrics registry off (the default) and on, so the overhead of
       the instrumented hot loops stays visible; the satellite budget
       for this PR is < 2% on the "on" variant. *)
    Test.make ~name:"metrics:seminaive-off"
      (Staged.stage (fun () -> ignore (D.Eval.seminaive program db)));
    Test.make ~name:"metrics:seminaive-on"
      (Staged.stage (fun () ->
           Util.Metrics.set_enabled true;
           Fun.protect
             ~finally:(fun () -> Util.Metrics.set_enabled false)
             (fun () -> ignore (D.Eval.seminaive program db))));
    (* Tracing kernels, mirroring the metrics pair: the fully
       instrumented pipeline with the event recorder off (every span
       site is one atomic-flag branch — the satellite budget is < 2%
       vs. the uninstrumented baseline above) and on (ring-buffer
       writes; the buffer is reset each run so it never wraps). *)
    Test.make ~name:"tracing:seminaive-off"
      (Staged.stage (fun () -> ignore (D.Eval.seminaive program db)));
    Test.make ~name:"tracing:seminaive-on"
      (Staged.stage (fun () ->
           Util.Tracing.reset ();
           Util.Tracing.set_enabled true;
           Fun.protect
             ~finally:(fun () -> Util.Tracing.set_enabled false)
             (fun () -> ignore (D.Eval.seminaive program db))));
    Test.make ~name:"tracing:first-member-off"
      (Staged.stage (fun () ->
           let e = P.Enumerate.of_closure closure in
           ignore (P.Enumerate.next e)));
    Test.make ~name:"tracing:first-member-on"
      (Staged.stage (fun () ->
           Util.Tracing.reset ();
           Util.Tracing.set_enabled true;
           Fun.protect
             ~finally:(fun () -> Util.Tracing.set_enabled false)
             (fun () ->
               let e = P.Enumerate.of_closure closure in
               ignore (P.Enumerate.next e))));
    (* Profiler kernels, same discipline: the engine with the rule
       profiler compiled in but disabled (its bit of the enable word is
       read once per fixpoint, so "off" must stay within the < 2%
       satellite budget of the uninstrumented run) and enabled
       (per-atom closure wrapping counting into the per-rule tallies,
       plus two clock reads per task; reset each run so the accumulator
       never grows). *)
    Test.make ~name:"profile:seminaive-off"
      (Staged.stage (fun () -> ignore (D.Eval.seminaive program db)));
    Test.make ~name:"profile:seminaive-on"
      (Staged.stage (fun () ->
           D.Profile.reset ();
           D.Profile.set_enabled true;
           Fun.protect
             ~finally:(fun () -> D.Profile.set_enabled false)
             (fun () -> ignore (D.Eval.seminaive program db))));
    (* Disabled-path A/B: the instrumentation entry points called
       directly in a tight loop with both sinks off, against the same
       loop calling a bare closure. The whole-pipeline "*-off" kernels
       above drift more between runs than the < 2% budget of
       docs/OBSERVABILITY.md; here each run makes 1,000,000 calls, so
       (kernel - empty loop) in ms/run is the cost of one disabled call
       in ns, which times a workload's call count gives its share of
       the request. *)
    Test.make ~name:"disabled:empty-loop"
      (Staged.stage (fun () ->
           for i = 1 to 1_000_000 do
             ignore (Sys.opaque_identity ((fun () -> i) ()))
           done));
    Test.make ~name:"disabled:metrics-incr"
      (Staged.stage
         (let c = Util.Metrics.counter "bench.disabled.incr" in
          fun () ->
            Util.Metrics.set_enabled false;
            for i = 1 to 1_000_000 do
              Util.Metrics.incr c;
              ignore (Sys.opaque_identity ((fun () -> i) ()))
            done));
    Test.make ~name:"disabled:with-span"
      (Staged.stage (fun () ->
           Util.Metrics.set_enabled false;
           Util.Tracing.set_enabled false;
           for i = 1 to 1_000_000 do
             ignore
               (Sys.opaque_identity (Util.Tracing.with_span "bench.disabled.span" (fun () -> i)))
           done));
    (* Ablation kernel: the two acyclicity encodings. *)
    Test.make ~name:"ablation:encode-ve"
      (Staged.stage (fun () ->
           ignore (P.Encode.make ~acyclicity:P.Encode.Vertex_elimination closure)));
    Test.make ~name:"ablation:encode-tc"
      (Staged.stage (fun () ->
           ignore (P.Encode.make ~acyclicity:P.Encode.Transitive_closure closure)));
  ]

let run () =
  Harness.header "Micro-benchmarks (Bechamel; one kernel per table/figure)";
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ estimate ] ->
            Printf.printf "  %-28s %12s/run\n"
              (match String.index_opt name '/' with
              | Some i -> String.sub name (i + 1) (String.length name - i - 1)
              | None -> name)
              (Harness.time_str (estimate /. 1e9))
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        analyzed)
    (tests ())
