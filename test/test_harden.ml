(* Tests for the hardening harness (docs/HARDENING.md): instance
   generators checked against independent oracles, the corpus runner's
   cross-checks, fuzz-loop determinism, and — the point of the whole
   subsystem — proof that an injected solver bug is caught and shrunk
   to a small reproducer. *)

module Gen = Harden.Gen
module Corpus = Harden.Corpus
module Fuzz = Harden.Fuzz
module L = Sat.Lit

let solve_checked ?(preprocess = true) ?(config = Sat.Solver.default_config)
    cnf =
  let opts =
    {
      Corpus.default_opts with
      config_name = "test";
      config;
      preprocess;
      timeout_s = 30.0;
    }
  in
  (Corpus.solve_instance opts ~name:"test" cnf).Corpus.outcome

let check_outcome name expected cnf =
  List.iter
    (fun preprocess ->
      match (expected, solve_checked ~preprocess cnf) with
      | `Sat, Corpus.Sat_ok | `Unsat, Corpus.Unsat_ok -> ()
      | _, got ->
          Alcotest.failf "%s (preprocess %b): expected %s, got %s" name
            preprocess
            (match expected with `Sat -> "SAT" | `Unsat -> "UNSAT")
            (Corpus.outcome_label got))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Generator soundness: each family's known SAT/UNSAT status, with the
   corpus runner's own cross-checks (model evaluation, DRAT) active.   *)
(* ------------------------------------------------------------------ *)

let test_families () =
  check_outcome "php(5,4)" `Unsat (Gen.pigeonhole ~pigeons:5 ~holes:4);
  check_outcome "php(3,3)" `Sat (Gen.pigeonhole ~pigeons:3 ~holes:3);
  check_outcome "unit-conflict" `Unsat (Gen.unit_conflict ());
  check_outcome "xor-chain sat" `Sat (Gen.xor_chain ~length:12 ~sat:true);
  check_outcome "xor-chain unsat" `Unsat (Gen.xor_chain ~length:12 ~sat:false);
  check_outcome "grid 3x3x2" `Sat (Gen.grid_coloring ~width:3 ~height:3 ~colors:2);
  check_outcome "grid 2x2x1" `Unsat (Gen.grid_coloring ~width:2 ~height:2 ~colors:1);
  check_outcome "sudoku box 2" `Sat (Gen.sudoku (Util.Rng.create 1) ~box:2);
  check_outcome "sudoku box 2 + givens" `Sat
    (Gen.sudoku ~givens:6 (Util.Rng.create 2) ~box:2);
  check_outcome "sudoku box 3 + givens" `Sat
    (Gen.sudoku ~givens:30 (Util.Rng.create 3) ~box:3);
  check_outcome "sudoku conflict" `Unsat
    (Gen.sudoku ~conflict:true (Util.Rng.create 4) ~box:2)

let test_random_kcnf_shape () =
  let rng = Util.Rng.create 11 in
  for _ = 1 to 50 do
    let nvars = 3 + Util.Rng.int rng 20 in
    let k = 2 + Util.Rng.int rng 2 in
    let ratio = 1.0 +. Util.Rng.float rng 5.0 in
    let cnf = Gen.random_kcnf ~k rng ~nvars ~ratio in
    Alcotest.(check int) "nvars" nvars cnf.Gen.nvars;
    Alcotest.(check int)
      "clause count"
      (int_of_float (Float.round (ratio *. float_of_int nvars)))
      (List.length cnf.Gen.clauses);
    List.iter
      (fun clause ->
        Alcotest.(check int) "clause width" k (List.length clause);
        let vars = List.sort_uniq compare (List.map L.var clause) in
        Alcotest.(check int) "distinct vars" k (List.length vars);
        List.iter
          (fun l -> Alcotest.(check bool) "in range" true (L.var l < nvars))
          clause)
      cnf.Gen.clauses
  done

(* Tseytin property: the CNF is satisfiable iff some input assignment
   makes the asserted outputs true under structural evaluation —
   checked by brute force over the inputs on one side and over the CNF
   variables (reference solver) on the other. *)

let random_circuit rng =
  let open Gen.Circuit in
  let c = create () in
  let n_in = 2 + Util.Rng.int rng 4 in
  let nodes = ref (Array.init n_in (fun _ -> input c)) in
  let add n = nodes := Array.append !nodes [| n |] in
  let pick () =
    let n = Util.Rng.choose rng !nodes in
    if Util.Rng.int rng 4 = 0 then not_ n else n
  in
  let n_gates = 2 + Util.Rng.int rng 8 in
  for _ = 1 to n_gates do
    match Util.Rng.int rng 4 with
    | 0 -> add (and_ c (pick ()) (pick ()))
    | 1 -> add (or_ c (pick ()) (pick ()))
    | 2 -> add (xor_ c (pick ()) (pick ()))
    | _ -> add (ite c (pick ()) (pick ()) (pick ()))
  done;
  let out = pick () in
  assert_ c out;
  (c, out)

let prop_tseytin_equisatisfiable =
  QCheck.Test.make ~count:120 ~name:"tseytin CNF equisatisfiable with circuit"
    QCheck.(int_bound ((1 lsl 30) - 1))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let c, out = random_circuit rng in
      let cnf = Gen.Circuit.cnf c in
      let n_in = Gen.Circuit.n_inputs c in
      let circuit_sat = ref false in
      for mask = 0 to (1 lsl n_in) - 1 do
        let inputs = Array.init n_in (fun i -> mask land (1 lsl i) <> 0) in
        if Gen.Circuit.eval c inputs out then circuit_sat := true
      done;
      let cnf_sat =
        Sat.Reference.brute_force ~nvars:cnf.Gen.nvars cnf.Gen.clauses <> None
      in
      if cnf_sat <> !circuit_sat then
        QCheck.Test.fail_reportf "circuit %b vs CNF %b for\n%s" !circuit_sat
          cnf_sat
          (Gen.to_dimacs cnf);
      true)

(* ------------------------------------------------------------------ *)
(* Corpus runner                                                       *)
(* ------------------------------------------------------------------ *)

let fixed_instances rng =
  [
    ("php54", Gen.pigeonhole ~pigeons:5 ~holes:4);
    ("php33", Gen.pigeonhole ~pigeons:3 ~holes:3);
    ("unit", Gen.unit_conflict ());
    ("xor-sat", Gen.xor_chain ~length:10 ~sat:true);
    ("xor-unsat", Gen.xor_chain ~length:10 ~sat:false);
    ("grid", Gen.grid_coloring ~width:3 ~height:2 ~colors:2);
    ("r3a", Gen.random_kcnf rng ~nvars:12 ~ratio:4.26);
    ("r3b", Gen.random_kcnf rng ~nvars:12 ~ratio:4.26);
  ]

let corpus_configs =
  List.filter (fun (name, _) -> name <> "tiny-db") Fuzz.panel_configs

let test_corpus_matrix () =
  let rng = Util.Rng.create 4242 in
  let instances = fixed_instances rng in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun preprocess ->
          let opts =
            {
              Corpus.default_opts with
              config_name = name;
              config;
              preprocess;
              timeout_s = 30.0;
            }
          in
          let report = Corpus.run_list opts instances in
          Alcotest.(check int)
            (Printf.sprintf "failures (%s, pre %b)" name preprocess)
            0 report.Corpus.failures;
          Alcotest.(check int)
            "instances" (List.length instances)
            (List.length report.Corpus.instances);
          Alcotest.(check int) "tally adds up"
            (List.length instances)
            (report.Corpus.sat + report.Corpus.unsat + report.Corpus.timeouts
           + report.Corpus.failures))
        [ true; false ])
    corpus_configs

let test_corpus_timings_sorted () =
  let rng = Util.Rng.create 7 in
  let report = Corpus.run_list Corpus.default_opts (fixed_instances rng) in
  let lines =
    String.split_on_char '\n' (Corpus.timings report)
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "one line per instance" 8 (List.length lines);
  let times =
    List.map (fun l -> float_of_string (List.hd (String.split_on_char ' ' l))) lines
  in
  Alcotest.(check bool) "ascending" true
    (List.sort compare times = times)

let test_corpus_dir_survives_corrupt_file () =
  let dir = Filename.temp_file "harden" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "good.cnf" (Gen.to_dimacs (Gen.unit_conflict ()));
  write "bad.cnf" "p cnf oops\n1 0\n";
  write "ignored.txt" "not a cnf";
  let report = Corpus.run_dir Corpus.default_opts dir in
  Alcotest.(check int) "two instances" 2 (List.length report.Corpus.instances);
  Alcotest.(check int) "one failure (the corrupt file)" 1 report.Corpus.failures;
  Alcotest.(check int) "one unsat" 1 report.Corpus.unsat;
  (match (List.hd report.Corpus.instances).Corpus.outcome with
  | Corpus.Failed _ -> ()
  | o -> Alcotest.failf "bad.cnf should fail, got %s" (Corpus.outcome_label o));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Fuzz loop: determinism, cleanliness, and injected-bug detection     *)
(* ------------------------------------------------------------------ *)

let test_fuzz_deterministic_and_clean () =
  let run () = Fuzz.run ~seed:2026 ~iters:25 () in
  let a = run () and b = run () in
  Alcotest.(check int) "no bugs" 0 (List.length a.Fuzz.s_bugs);
  Alcotest.(check int) "cnf checks" a.Fuzz.s_cnf_checks b.Fuzz.s_cnf_checks;
  Alcotest.(check int) "engine checks" a.Fuzz.s_engine_checks b.Fuzz.s_engine_checks;
  Alcotest.(check int) "prov checks" a.Fuzz.s_prov_checks b.Fuzz.s_prov_checks;
  Alcotest.(check int) "parser checks" 25 a.Fuzz.s_parser_checks;
  Alcotest.(check bool) "identical summaries" true (a = b)

(* The acceptance gate: a solver that flips one literal of one clause
   before solving (a stand-in for a corrupted learnt clause) must be
   caught by the differential loop and shrunk to a tiny reproducer. *)

let buggy_solver () =
  let real = Fuzz.pipeline_solver ~name:"flipped-literal" ~config:Sat.Solver.default_config ~preprocess:false () in
  let corrupt clauses =
    match List.rev clauses with
    | [] -> []
    | last :: rest ->
        let last' =
          match last with
          | l :: ls -> L.negate l :: ls
          | [] -> []
        in
        List.rev (last' :: rest)
  in
  {
    Fuzz.cs_name = "flipped-literal";
    cs_solve = (fun ~nvars clauses -> real.Fuzz.cs_solve ~nvars (corrupt clauses));
    cs_enumerate =
      (fun ~limit ~nvars clauses ->
        real.Fuzz.cs_enumerate ~limit ~nvars (corrupt clauses));
  }

let test_injected_bug_caught_and_shrunk () =
  let summary = Fuzz.run ~solvers:[ buggy_solver () ] ~seed:5 ~iters:40 () in
  let cnf_bugs =
    List.filter (fun b -> b.Fuzz.kind = "cnf") summary.Fuzz.s_bugs
  in
  Alcotest.(check bool) "bug found" true (cnf_bugs <> []);
  List.iter
    (fun bug ->
      match bug.Fuzz.cnf with
      | None -> Alcotest.fail "cnf bug carries no instance"
      | Some cnf ->
          let n = List.length cnf.Gen.clauses in
          if n > 20 then
            Alcotest.failf "reproducer not small: %d clauses" n;
          (* The reproducer file regenerates the instance. *)
          let name, contents = Fuzz.reproducer bug in
          Alcotest.(check bool) "cnf file" true (Filename.check_suffix name ".cnf");
          let reparsed = Gen.of_dimacs contents in
          Alcotest.(check bool) "round-trips" true
            (reparsed.Gen.clauses = cnf.Gen.clauses))
    cnf_bugs

(* A solver whose single solves are right but whose enumerations stop
   after the first model: the shape of a learnt clause that goes wrong
   only once blocking clauses arrive. Only the enumeration check can
   see it, and every top-level CNF check must run that check. *)
let early_unsat_solver () =
  let real = Fuzz.pipeline_solver ~name:"early-unsat" ~config:Sat.Solver.default_config ~preprocess:false () in
  {
    real with
    Fuzz.cs_enumerate =
      (fun ~limit ~nvars clauses ->
        real.Fuzz.cs_enumerate ~limit:(min limit 1) ~nvars clauses);
  }

let test_injected_early_unsat_caught () =
  Util.Metrics.reset ();
  Util.Metrics.set_enabled true;
  let summary =
    Fun.protect
      ~finally:(fun () -> Util.Metrics.set_enabled false)
      (fun () -> Fuzz.run ~solvers:[ early_unsat_solver () ] ~seed:5 ~iters:40 ())
  in
  let enum_checks = Util.Metrics.get_counter "harden.fuzz.enum_checks" in
  Util.Metrics.reset ();
  Alcotest.(check bool) "every check enumerates" true (enum_checks >= 40);
  let cnf_bugs =
    List.filter (fun b -> b.Fuzz.kind = "cnf") summary.Fuzz.s_bugs
  in
  Alcotest.(check bool) "bug found" true (cnf_bugs <> []);
  List.iter
    (fun bug ->
      match bug.Fuzz.cnf with
      | None -> Alcotest.fail "cnf bug carries no instance"
      | Some cnf ->
          (* Shrunk to a formula that still has two models. *)
          Alcotest.(check bool) "two or more models" true
            (Sat.Reference.count_models ~nvars:cnf.Gen.nvars cnf.Gen.clauses >= 2))
    cnf_bugs

let test_shrink_cnf_minimal () =
  (* Failing = "contains both x0 and ¬x0 as unit clauses"; everything
     else must be stripped and each kept clause must be 1-minimal. *)
  let failing cs =
    List.mem [ L.pos 0 ] cs && List.mem [ L.neg 0 ] cs
  in
  let noise =
    [ [ L.pos 1; L.pos 2 ]; [ L.pos 0 ]; [ L.neg 2; L.pos 3 ]; [ L.neg 0 ];
      [ L.pos 4 ] ]
  in
  let shrunk = Fuzz.shrink_cnf ~failing noise in
  Alcotest.(check bool) "still failing" true (failing shrunk);
  Alcotest.(check int) "two clauses" 2 (List.length shrunk)

let test_engine_and_prov_checks_pass () =
  (* The Datalog differentials on a deterministic sample of programs. *)
  for seed = 1 to 15 do
    let t = Workloads.Randprog.generate (Util.Rng.create seed) in
    (match Fuzz.check_engine t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "engine differential (seed %d): %s" seed e);
    let small =
      Workloads.Randprog.generate ~min_rules:1 ~max_rules:3 ~min_facts:2
        ~max_facts:7
        (Util.Rng.create (seed * 31))
    in
    match Fuzz.check_provenance small with
    | Ok () -> ()
    | Error e -> Alcotest.failf "provenance differential (seed %d): %s" seed e
  done

let test_reproducer_dl_roundtrip () =
  let t =
    Workloads.Randprog.generate ~min_rules:1 ~max_rules:3 ~min_facts:2
      ~max_facts:6 (Util.Rng.create 99)
  in
  let bug =
    {
      Fuzz.seed = 1;
      iter = 2;
      kind = "engine";
      detail = "randprog";
      message = "synthetic";
      cnf = None;
      prog = Some t;
      text = None;
    }
  in
  let name, contents = Fuzz.reproducer bug in
  Alcotest.(check bool) "dl file" true (Filename.check_suffix name ".dl");
  let t' = Workloads.Randprog.of_string contents in
  Alcotest.(check string) "round-trips" (Workloads.Randprog.to_string t)
    (Workloads.Randprog.to_string t')

(* The in-place parser against the token-tuple reference parser, on
   decorated Randprog texts (Fuzz.parser_template). *)
let prop_parser_differential =
  QCheck.Test.make ~count:300 ~name:"parser = reference parser (randprog texts)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Fuzz.check_parser (Fuzz.parser_template (Util.Rng.create seed)) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let suite =
  let tc = Alcotest.test_case in
  ( "harden",
    [
      tc "generator families" `Quick test_families;
      tc "random k-cnf shape" `Quick test_random_kcnf_shape;
      QCheck_alcotest.to_alcotest prop_tseytin_equisatisfiable;
      QCheck_alcotest.to_alcotest prop_parser_differential;
      tc "corpus config matrix" `Slow test_corpus_matrix;
      tc "corpus timings sorted" `Quick test_corpus_timings_sorted;
      tc "corpus survives corrupt file" `Quick test_corpus_dir_survives_corrupt_file;
      tc "fuzz deterministic and clean" `Quick test_fuzz_deterministic_and_clean;
      tc "injected bug caught and shrunk" `Quick test_injected_bug_caught_and_shrunk;
      tc "injected early unsat caught" `Quick test_injected_early_unsat_caught;
      tc "shrink_cnf minimal" `Quick test_shrink_cnf_minimal;
      tc "datalog differentials" `Quick test_engine_and_prov_checks_pass;
      tc "dl reproducer round-trip" `Quick test_reproducer_dl_roundtrip;
    ] )
