(* whyfuzz — the hardening harness CLI (docs/HARDENING.md).

   Three subcommands over lib/harden:

     whyfuzz corpus DIR   run every .cnf under a timeout, cross-check
                          every answer, across a config matrix
     whyfuzz gen FAMILY   print a structured instance as DIMACS
     whyfuzz fuzz         seeded differential fuzzing with shrinking

   Exit codes: 0 clean, 1 cross-check failures / bugs found / bad
   input, 124 reserved (never used; timeouts are tallied, not fatal). *)

open Cmdliner
module Metrics = Util.Metrics

(* ------------------------------------------------------------------ *)
(* Named solver configurations                                         *)
(* ------------------------------------------------------------------ *)

let named_configs = Harden.Fuzz.panel_configs

let config_of_name name =
  match List.assoc_opt name named_configs with
  | Some c -> Ok c
  | None ->
      Error
        (Printf.sprintf "unknown config %S (known: %s)" name
           (String.concat ", " (List.map fst named_configs)))

(* ------------------------------------------------------------------ *)
(* whyfuzz corpus                                                      *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let cmd_corpus dir timeout configs preprocess timings_out stats_out =
  if stats_out <> None then Metrics.set_enabled true;
  let configs_r =
    List.map (fun n -> (n, config_of_name n)) configs
    |> List.fold_left
         (fun acc (n, r) ->
           match (acc, r) with
           | Error e, _ -> Error e
           | Ok _, Error e -> Error e
           | Ok l, Ok c -> Ok ((n, c) :: l))
         (Ok [])
  in
  match configs_r with
  | Error e ->
      prerr_endline ("whyfuzz: " ^ e);
      1
  | Ok configs_rev -> (
      let configs = List.rev configs_rev in
      let pre_modes =
        match preprocess with
        | `Both -> [ true; false ]
        | `On -> [ true ]
        | `Off -> [ false ]
      in
      try
        let reports =
          List.concat_map
            (fun (name, config) ->
              List.map
                (fun pre ->
                  let opts =
                    {
                      Harden.Corpus.default_opts with
                      config_name =
                        Printf.sprintf "%s/%s" name
                          (if pre then "pre" else "raw");
                      config;
                      preprocess = pre;
                      timeout_s = timeout;
                    }
                  in
                  let report = Harden.Corpus.run_dir opts dir in
                  Format.printf "%a@." Harden.Corpus.pp_summary report;
                  report)
                pre_modes)
            configs
        in
        (match timings_out with
        | None -> ()
        | Some path ->
            write_file path
              (String.concat "" (List.map Harden.Corpus.timings reports)));
        (match stats_out with
        | None -> ()
        | Some path -> write_file path (Metrics.to_json_string ()));
        let failures =
          List.fold_left (fun n r -> n + r.Harden.Corpus.failures) 0 reports
        in
        if failures > 0 then (
          Printf.eprintf "whyfuzz: %d cross-check failure(s)\n" failures;
          1)
        else 0
      with
      | Invalid_argument msg | Sys_error msg ->
          prerr_endline ("whyfuzz: " ^ msg);
          1)

(* ------------------------------------------------------------------ *)
(* whyfuzz gen                                                         *)
(* ------------------------------------------------------------------ *)

let cmd_gen family out seed nvars ratio k pigeons holes length sat width
    height colors box givens conflict =
  let param_line = ref "" in
  let instance =
    match family with
    | "php" ->
        param_line := Printf.sprintf "gen php --pigeons %d --holes %d" pigeons holes;
        Ok (Harden.Gen.pigeonhole ~pigeons ~holes)
    | "random" ->
        param_line :=
          Printf.sprintf "gen random --seed %d --nvars %d --ratio %g --k %d"
            seed nvars ratio k;
        Ok (Harden.Gen.random_kcnf ~k (Util.Rng.create seed) ~nvars ~ratio)
    | "xorchain" ->
        param_line :=
          Printf.sprintf "gen xorchain --length %d %s" length
            (if sat then "--sat" else "--unsat");
        Ok (Harden.Gen.xor_chain ~length ~sat)
    | "grid" ->
        param_line :=
          Printf.sprintf "gen grid --width %d --height %d --colors %d" width
            height colors;
        Ok (Harden.Gen.grid_coloring ~width ~height ~colors)
    | "unit-conflict" ->
        param_line := "gen unit-conflict";
        Ok (Harden.Gen.unit_conflict ())
    | "sudoku" ->
        param_line :=
          Printf.sprintf "gen sudoku --seed %d --box %d --givens %d%s" seed box
            givens
            (if conflict then " --conflict" else "");
        Ok
          (Harden.Gen.sudoku ~givens ~conflict (Util.Rng.create seed) ~box)
    | f ->
        Error
          (Printf.sprintf
             "unknown family %S (known: php, random, xorchain, grid, \
              unit-conflict, sudoku)"
             f)
  in
  match instance with
  | Error e ->
      prerr_endline ("whyfuzz: " ^ e);
      1
  | Ok cnf ->
      let text =
        Harden.Gen.to_dimacs ~comments:[ "whyfuzz " ^ !param_line ] cnf
      in
      (match out with
      | None -> print_string text
      | Some path -> write_file path text);
      0

(* ------------------------------------------------------------------ *)
(* whyfuzz fuzz                                                        *)
(* ------------------------------------------------------------------ *)

let cmd_fuzz seed iters out quiet =
  let progress =
    if quiet then fun _ -> ()
    else fun i ->
      if i > 0 && i mod 10 = 0 then Printf.eprintf "whyfuzz: iteration %d/%d\n%!" i iters
  in
  let summary = Harden.Fuzz.run ~progress ~seed ~iters () in
  Format.printf "%a@." Harden.Fuzz.pp_summary summary;
  let bugs = summary.Harden.Fuzz.s_bugs in
  if bugs <> [] then begin
    let dir = Option.value out ~default:"." in
    let paths = Harden.Fuzz.write_reproducers ~dir summary in
    List.iter (fun p -> Printf.eprintf "whyfuzz: reproducer %s\n" p) paths;
    1
  end
  else 0

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let dir_arg =
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc:"Corpus directory of .cnf files.")

let timeout_arg =
  Arg.(value & opt float 5.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Wall-clock budget per instance.")

let configs_arg =
  Arg.(
    value
    & opt (list string) [ "default"; "fast-restarts"; "no-inprocessing" ]
    & info [ "configs" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated solver configurations to run (default, \
           fast-restarts, no-inprocessing, tiny-db).")

let preprocess_arg =
  Arg.(
    value
    & opt (enum [ ("both", `Both); ("on", `On); ("off", `Off) ]) `Both
    & info [ "preprocess" ] ~docv:"MODE"
        ~doc:"Run with preprocessing $(b,on), $(b,off), or $(b,both) (default).")

let timings_arg =
  Arg.(value & opt (some string) None & info [ "timings" ] ~docv:"FILE" ~doc:"Write sorted per-instance timing lines to $(docv).")

let stats_out_arg =
  Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc:"Write a JSON metrics snapshot to $(docv).")

let corpus_cmd =
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Run every .cnf in a directory under a timeout across a \
          configuration matrix, cross-checking every answer (models \
          evaluated, UNSATs DRAT-certified). Exits 1 on any cross-check \
          failure.")
    Term.(
      const cmd_corpus $ dir_arg $ timeout_arg $ configs_arg $ preprocess_arg
      $ timings_arg $ stats_out_arg)

let family_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FAMILY"
        ~doc:
          "Instance family: php, random, xorchain, grid, unit-conflict, \
           sudoku.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write DIMACS to $(docv) instead of stdout.")

let seed_arg ~default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc:"Deterministic generator seed.")

let gen_cmd =
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a structured CNF instance (Tseytin xor-chain, \
          pigeonhole, random k-CNF, grid coloring, unit conflict) as \
          DIMACS with its parameters recorded in the header.")
    Term.(
      const cmd_gen $ family_arg $ out_arg $ seed_arg ~default:0
      $ Arg.(value & opt int 20 & info [ "nvars" ] ~docv:"N" ~doc:"Variables (random family).")
      $ Arg.(value & opt float 4.26 & info [ "ratio" ] ~docv:"R" ~doc:"Clause/variable ratio (random family).")
      $ Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Literals per clause (random family).")
      $ Arg.(value & opt int 5 & info [ "pigeons" ] ~docv:"P" ~doc:"Pigeons (php family).")
      $ Arg.(value & opt int 4 & info [ "holes" ] ~docv:"H" ~doc:"Holes (php family).")
      $ Arg.(value & opt int 16 & info [ "length" ] ~docv:"N" ~doc:"Inputs (xorchain family).")
      $ Arg.(value & flag & info [ "sat" ] ~doc:"Pin xorchain inputs to odd parity (satisfiable); default unsatisfiable.")
      $ Arg.(value & opt int 3 & info [ "width" ] ~docv:"W" ~doc:"Grid width (grid family).")
      $ Arg.(value & opt int 3 & info [ "height" ] ~docv:"H" ~doc:"Grid height (grid family).")
      $ Arg.(value & opt int 2 & info [ "colors" ] ~docv:"C" ~doc:"Colors (grid family).")
      $ Arg.(value & opt int 2 & info [ "box" ] ~docv:"N" ~doc:"Box size (sudoku family): the grid is N²×N².")
      $ Arg.(value & opt int 0 & info [ "givens" ] ~docv:"G" ~doc:"Cells pinned to a fixed valid solution (sudoku family).")
      $ Arg.(value & flag & info [ "conflict" ] ~doc:"Pin cell (0,0) to two values — unsatisfiable (sudoku family)."))

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Seeded differential fuzzing: random CNFs across solver \
          configurations vs the truth-table oracle, random Datalog \
          programs across engines and against the powerset provenance \
          oracle. Disagreements are shrunk and written as reproducer \
          files; exits 1 if any were found.")
    Term.(
      const cmd_fuzz $ seed_arg ~default:42
      $ Arg.(value & opt int 100 & info [ "iters" ] ~docv:"N" ~doc:"Fuzzing iterations.")
      $ Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc:"Directory for reproducer files (default: current directory).")
      $ Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress lines."))

let () =
  let doc = "hardening harness: corpus runs, instance generation, fuzzing" in
  let info = Cmd.info "whyfuzz" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ corpus_cmd; gen_cmd; fuzz_cmd ]))
