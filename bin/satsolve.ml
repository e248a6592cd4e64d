(* satsolve — standalone DIMACS front end to the CDCL substrate.

   Usage: satsolve [--stats[=json]] [--trace FILE] [--progress[=N]]
                   [--no-preprocess] FILE.cnf
   Prints "s SATISFIABLE" with a "v ..." model line, or "s UNSATISFIABLE",
   in the conventional SAT-competition output format, plus solver
   statistics on stderr — including the learnt-clause LBD distribution.
   The formula is run through the SatELite-style preprocessor
   (Sat.Preprocess) before solving, with no frozen variables since the
   DIMACS model is reconstructed afterwards; --no-preprocess feeds the
   raw clauses to the solver instead. With --stats the pipeline metrics
   registry (docs/OBSERVABILITY.md) is enabled and its snapshot is
   printed on stderr as well — human-readable by default, one JSON line
   with --stats=json. --trace FILE records the structured event timeline
   and writes Chrome trace-event JSON on exit; --progress[=N] prints a
   live telemetry line every N conflicts (default 2048) and a one-line
   summary at the end. *)

let usage () =
  prerr_endline
    "usage: satsolve [--stats[=json]] [--trace FILE] [--progress[=N]] \
     [--no-preprocess] FILE.cnf";
  exit 2

let () =
  let stats = ref None in
  let trace = ref None in
  let progress = ref None in
  let preprocess = ref true in
  let rec filter args =
    match args with
    | [] -> []
    | ("--stats" | "--stats=human") :: rest ->
      stats := Some `Human;
      filter rest
    | "--stats=json" :: rest ->
      stats := Some `Json;
      filter rest
    | "--trace" :: path :: rest ->
      trace := Some path;
      filter rest
    | "--progress" :: rest ->
      progress := Some 2048;
      filter rest
    | "--no-preprocess" :: rest ->
      preprocess := false;
      filter rest
    | arg :: rest when String.length arg > 11 && String.sub arg 0 11 = "--progress=" ->
      (match int_of_string_opt (String.sub arg 11 (String.length arg - 11)) with
      | Some n when n > 0 -> progress := Some n
      | _ -> usage ());
      filter rest
    | arg :: rest -> arg :: filter rest
  in
  let paths = filter (List.tl (Array.to_list Sys.argv)) in
  match paths with
  | [ path ] ->
    if !stats <> None then Util.Metrics.set_enabled true;
    if !trace <> None then Util.Tracing.set_enabled true;
    (match !progress with
    | None -> ()
    | Some interval ->
      Sat.Solver.set_progress ~interval
        (Some
           (fun (p : Sat.Solver.progress) ->
             Printf.eprintf
               "c [progress] conflicts=%d restarts=%d learnts=%d lbd-avg=%.1f \
                level=%d\n\
                %!"
               p.Sat.Solver.p_conflicts p.Sat.Solver.p_restarts
               p.Sat.Solver.p_learnts p.Sat.Solver.p_lbd_avg
               p.Sat.Solver.p_decision_level)));
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    let nvars, clauses =
      try Sat.Dimacs.of_string src
      with Sat.Dimacs.Parse_error _ as e ->
        Printf.eprintf "satsolve: %s: %s\n" path (Sat.Dimacs.error_message e);
        exit 1
    in
    (* Nothing downstream reads individual DIMACS variables, so no
       variable is frozen: the model is reconstructed below before the
       "v" line is printed. *)
    let pre =
      if !preprocess then
        Some (Sat.Preprocess.simplify ~nvars ~frozen:(fun _ -> false) clauses)
      else None
    in
    let clauses =
      match pre with Some p -> Sat.Preprocess.clauses p | None -> clauses
    in
    (match pre with
    | None -> ()
    | Some p ->
      let s = Sat.Preprocess.stats p in
      Printf.eprintf
        "c preprocess: clauses %d->%d literals %d->%d eliminated=%d fixed=%d \
         subsumed=%d strengthened=%d rounds=%d\n"
        s.Sat.Preprocess.original_clauses s.Sat.Preprocess.clauses
        s.Sat.Preprocess.original_literals s.Sat.Preprocess.literals
        s.Sat.Preprocess.eliminated_vars s.Sat.Preprocess.fixed_vars
        s.Sat.Preprocess.subsumed_clauses s.Sat.Preprocess.strengthened_clauses
        s.Sat.Preprocess.rounds);
    let solver = Sat.Solver.create () in
    Sat.Solver.ensure_vars solver nvars;
    List.iter (Sat.Solver.add_clause solver) clauses;
    let result = Sat.Solver.solve solver in
    let stats' = Sat.Solver.stats solver in
    Printf.eprintf
      "c conflicts=%d decisions=%d propagations=%d restarts=%d learnts=%d \
       deleted=%d\n"
      stats'.Sat.Solver.conflicts stats'.Sat.Solver.decisions
      stats'.Sat.Solver.propagations stats'.Sat.Solver.restarts
      stats'.Sat.Solver.learnt_clauses stats'.Sat.Solver.deleted_clauses;
    (* Learnt-clause LBD distribution, "lbd:count" ascending; the last
       bin (32) collects every LBD >= 32. Omitted when nothing was
       learnt. *)
    (match stats'.Sat.Solver.lbd with
    | [] -> ()
    | dist ->
      let buffer = Buffer.create 128 in
      Buffer.add_string buffer "c lbd-distribution";
      List.iter
        (fun (lbd, count) ->
          Buffer.add_string buffer (Printf.sprintf " %d:%d" lbd count))
        dist;
      prerr_endline (Buffer.contents buffer));
    (match !progress with
    | None -> ()
    | Some _ ->
      let t = Sat.Solver.progress_totals () in
      Printf.eprintf
        "c progress: %d solve(s), %d conflict(s), %d restart(s), %d learnt \
         clause(s)\n\
         %!"
        t.Sat.Solver.t_solves t.Sat.Solver.t_conflicts
        t.Sat.Solver.t_restarts t.Sat.Solver.t_learnt_clauses);
    (match !stats with
    | Some `Json -> prerr_endline (Util.Metrics.to_json_string ())
    | Some `Human -> prerr_string (Util.Metrics.to_string ())
    | None -> ());
    (match !trace with
    | None -> ()
    | Some path ->
      Util.Tracing.set_enabled false;
      (try
         let oc = open_out path in
         Util.Tracing.write_chrome oc;
         close_out oc
       with Sys_error msg -> Printf.eprintf "satsolve: --trace: %s\n" msg));
    (match result with
    | Sat.Solver.Sat ->
      print_endline "s SATISFIABLE";
      let model = Sat.Solver.model solver in
      let model =
        match pre with
        | Some p -> Sat.Preprocess.extend_model p model
        | None -> model
      in
      let buffer = Buffer.create 256 in
      Buffer.add_string buffer "v";
      Array.iteri
        (fun v value ->
          if v < nvars then
            Buffer.add_string buffer
              (Printf.sprintf " %d" (if value then v + 1 else -(v + 1))))
        model;
      Buffer.add_string buffer " 0";
      print_endline (Buffer.contents buffer);
      exit 10
    | Sat.Solver.Unsat ->
      print_endline "s UNSATISFIABLE";
      exit 20)
  | _ -> usage ()
