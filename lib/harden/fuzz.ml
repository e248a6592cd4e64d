(* Differential fuzzing with shrinking (docs/HARDENING.md).

   Two differential loops driven by one seed:

   - CNF: random and structured formulas solved by a portfolio of
     solver configurations (preprocessing on/off, on-the-fly
     subsumption on/off, restart and learnt-database variants), each
     checked against the truth-table oracle (Sat.Reference), with SAT
     models evaluated on the original clauses and UNSAT answers
     DRAT-certified; each configuration also enumerates the models
     with blocking clauses, the incremental use the why-provenance
     enumerator makes of the solver, and must count them like the
     oracle.

   - Datalog: random programs (Workloads.Randprog) run through the
     flat engine against the structural reference engine
     (Oracle.seminaive), and the SAT-based why_UN enumeration
     (preprocessing on/off) against the powerset oracle
     (Oracle.why_un_powerset).

   Any disagreement is minimized by greedy deletion — clauses then
   literals for CNF, rules then facts for Datalog — and rendered as a
   reproducer file whose header records the seed, so the exact failing
   iteration can be regenerated. *)

module L = Sat.Lit
module D = Datalog
module P = Provenance
module W = Workloads
module Metrics = Util.Metrics

let m_iters = Metrics.counter "harden.fuzz.iters"
let m_cnf_checks = Metrics.counter "harden.fuzz.cnf_checks"
let m_enum_checks = Metrics.counter "harden.fuzz.enum_checks"
let m_engine_checks = Metrics.counter "harden.fuzz.engine_checks"
let m_prov_checks = Metrics.counter "harden.fuzz.prov_checks"
let m_bugs = Metrics.counter "harden.fuzz.bugs"
let m_shrink_tests = Metrics.counter "harden.fuzz.shrink_tests"

(* --- CNF differential -------------------------------------------------- *)

type cnf_answer =
  | A_sat of bool array
  | A_unsat
  | A_failed of string  (* solver-internal cross-check (DRAT) failed *)

type cnf_solver = {
  cs_name : string;
  cs_solve : nvars:int -> L.t list list -> cnf_answer;
  cs_enumerate : limit:int -> nvars:int -> L.t list list -> bool array list;
}

(* A full pipeline instance as one opaque answer function: preprocess
   (optionally), solve under the given config, reconstruct the model /
   certify the refutation. Bug-injection tests substitute their own. *)
let pipeline_solver ~name ~config ~preprocess () =
  let solve ~nvars clauses =
    let pre =
      if preprocess then
        Some
          (Sat.Preprocess.simplify ~drat:true ~nvars
             ~frozen:(fun _ -> false) clauses)
      else None
    in
    let clauses' =
      match pre with Some p -> Sat.Preprocess.clauses p | None -> clauses
    in
    let solver = Sat.Solver.create ~config () in
    Sat.Solver.enable_proof_logging solver;
    (match pre with
    | Some p -> Sat.Solver.append_proof solver (Sat.Preprocess.proof p)
    | None -> ());
    Sat.Solver.ensure_vars solver nvars;
    List.iter (Sat.Solver.add_clause solver) clauses';
    match Sat.Solver.solve solver with
    | Sat.Solver.Sat ->
      let m = Sat.Solver.model solver in
      A_sat
        (match pre with Some p -> Sat.Preprocess.extend_model p m | None -> m)
    | Sat.Solver.Unsat -> (
      match
        Sat.Drat.check ~nvars ~original:clauses
          ~proof:(Sat.Solver.proof solver)
      with
      | Ok () -> A_unsat
      | Error e -> A_failed ("DRAT certification failed: " ^ e))
  in
  (* Solve, block the model, solve again: every variable is frozen, so
     the simplified formula keeps the whole model set. *)
  let enumerate ~limit ~nvars clauses =
    let clauses' =
      if preprocess then
        let p =
          Sat.Preprocess.simplify ~nvars ~frozen:(fun _ -> true) clauses
        in
        if Sat.Preprocess.unsat p then None else Some (Sat.Preprocess.clauses p)
      else Some clauses
    in
    match clauses' with
    | None -> []
    | Some clauses' ->
      let solver = Sat.Solver.create ~config () in
      Sat.Solver.ensure_vars solver nvars;
      List.iter (Sat.Solver.add_clause solver) clauses';
      let rec go n acc =
        if n >= limit then acc
        else
          match Sat.Solver.solve solver with
          | Sat.Solver.Unsat -> acc
          | Sat.Solver.Sat ->
            let m = Sat.Solver.model solver in
            Sat.Solver.add_clause solver
              (List.init nvars (fun v -> if m.(v) then L.neg v else L.pos v));
            go (n + 1) (m :: acc)
      in
      List.rev (go 0 [])
  in
  { cs_name = name; cs_solve = solve; cs_enumerate = enumerate }

let panel_configs =
  let d = Sat.Solver.default_config in
  [
    ("default", d);
    ("fast-restarts", { d with restart_base = 16; restart_factor = 1.5 });
    ("no-inprocessing", { d with otf_subsume = false });
    ("tiny-db", { d with max_learnts = 16; max_learnts_growth_pct = 10 });
  ]

let default_cnf_solvers () =
  let solver name ~preprocess =
    pipeline_solver
      ~name:(name ^ if preprocess then "+pre" else "+raw")
      ~config:(List.assoc name panel_configs) ~preprocess ()
  in
  [
    solver "default" ~preprocess:true;
    solver "default" ~preprocess:false;
    solver "fast-restarts" ~preprocess:true;
    solver "no-inprocessing" ~preprocess:false;
    solver "tiny-db" ~preprocess:true;
  ]

let falsified_clause model clauses =
  let sat_lit l =
    let v = L.var l in
    v < Array.length model && model.(v) = L.sign l
  in
  let rec go i = function
    | [] -> None
    | c :: rest -> if List.exists sat_lit c then go (i + 1) rest else Some i
  in
  go 0 clauses

(* Models enumerated per solver: enough blocking clauses to push the
   search through restarts and learnt-clause reductions on these small
   formulas, few enough to keep an iteration cheap. *)
let enum_limit = 256

(* The enumeration must stop at UNSAT exactly when the oracle's models
   run out (or reach [enum_limit]), and every model must satisfy the
   original clauses; blocking makes them pairwise distinct. *)
let check_enumeration s (cnf : Gen.cnf) ~expected_models =
  Metrics.incr m_enum_checks;
  let models = s.cs_enumerate ~limit:enum_limit ~nvars:cnf.nvars cnf.clauses in
  match List.find_map (fun m -> falsified_clause m cnf.clauses) models with
  | Some i ->
    Error
      (Printf.sprintf "[%s] enumerated model falsifies original clause %d"
         s.cs_name i)
  | None ->
    let n = List.length models in
    if n = min expected_models enum_limit then Ok ()
    else
      Error
        (Printf.sprintf "[%s] enumerated %d model(s); oracle counts %d"
           s.cs_name n expected_models)

(* One solver's verdict on one formula, judged against the oracle.
   [Error message] describes the first discrepancy. *)
let check_cnf_with solvers (cnf : Gen.cnf) =
  let expected_models = Sat.Reference.count_models ~nvars:cnf.nvars cnf.clauses in
  let expected = expected_models > 0 in
  let rec go = function
    | [] -> Ok ()
    | s :: rest -> (
      let next () =
        Result.bind (check_enumeration s cnf ~expected_models) (fun () -> go rest)
      in
      match s.cs_solve ~nvars:cnf.nvars cnf.clauses with
      | A_failed msg -> Error (Printf.sprintf "[%s] %s" s.cs_name msg)
      | A_sat model ->
        if not expected then
          Error
            (Printf.sprintf "[%s] answered SAT; oracle says UNSAT" s.cs_name)
        else (
          match falsified_clause model cnf.clauses with
          | None -> next ()
          | Some i ->
            Error
              (Printf.sprintf "[%s] model falsifies original clause %d"
                 s.cs_name i))
      | A_unsat ->
        if expected then
          Error
            (Printf.sprintf "[%s] answered UNSAT; oracle says SAT" s.cs_name)
        else next ())
  in
  Metrics.incr m_cnf_checks;
  go solvers

(* Greedy clause deletion, then literal deletion inside the surviving
   clauses, re-running [failing] after every candidate step; stops at a
   1-minimal failing clause list. Deleting a literal strengthens the
   clause (changes the formula), but "still fails the differential" is
   the only invariant shrinking needs. *)
let shrink_cnf ~failing clauses =
  let try_step clauses' =
    Metrics.incr m_shrink_tests;
    if failing clauses' then Some clauses' else None
  in
  let rec drop_clause i clauses =
    if i >= List.length clauses then clauses
    else
      match try_step (List.filteri (fun j _ -> j <> i) clauses) with
      | Some clauses' -> drop_clause 0 clauses'
      | None -> drop_clause (i + 1) clauses
  in
  let rec drop_lit i j clauses =
    match List.nth_opt clauses i with
    | None -> clauses
    | Some c ->
      if j >= List.length c then drop_lit (i + 1) 0 clauses
      else if List.length c <= 1 then drop_lit (i + 1) 0 clauses
      else
        let c' = List.filteri (fun k _ -> k <> j) c in
        let clauses' = List.mapi (fun k c0 -> if k = i then c' else c0) clauses in
        (match try_step clauses' with
        | Some clauses' -> drop_lit i j clauses'
        | None -> drop_lit i (j + 1) clauses)
  in
  drop_lit 0 0 (drop_clause 0 clauses)

(* --- Datalog differentials -------------------------------------------- *)

(* The model order contract: each predicate's facts in a model start
   with the database's facts of it, in reverse database order (the
   order [Database.of_list (Database.to_list db)] gives them). That
   order reaches closure and encoding order downstream. The order of
   derived facts is not part of it: the two engines join in different
   orders. *)
let check_model_order db model =
  let facts m p =
    let acc = ref [] in
    D.Database.iter_pred m p (fun f -> acc := f :: !acc);
    List.rev !acc
  in
  let prefix_ok p =
    let expected = List.rev (facts db p) in
    let n = List.length expected in
    List.equal D.Fact.equal expected (List.filteri (fun i _ -> i < n) (facts model p))
  in
  match List.find_opt (fun p -> not (prefix_ok p)) (D.Database.preds db) with
  | None -> Ok ()
  | Some p ->
    Error (Printf.sprintf "model order: the database facts of %s differ" (D.Symbol.name p))

(* Flat engine against the structural engine: same model set, same
   ranks, both models in the order contract. Returns the first
   discrepancy. *)
let check_engine (t : W.Randprog.t) =
  Metrics.incr m_engine_checks;
  let program = W.Randprog.program t in
  let db = W.Randprog.database t in
  let ranked table =
    D.Fact.Table.fold (fun f r acc -> (f, r) :: acc) table []
    |> List.sort compare
  in
  let sorted m = List.sort D.Fact.compare (D.Database.to_list m) in
  let r_struct = D.Fact.Table.create 64 in
  let m_struct = Oracle.seminaive ~ranks:r_struct program db in
  let r_flat = D.Fact.Table.create 64 in
  let m_flat = D.Engine.seminaive ~ranks:r_flat program db in
  if not (List.equal D.Fact.equal (sorted m_struct) (sorted m_flat)) then
    Error
      (Printf.sprintf "flat engine model differs from structural (%d vs %d facts)"
         (D.Database.size m_flat) (D.Database.size m_struct))
  else if ranked r_struct <> ranked r_flat then Error "flat engine ranks differ"
  else Result.bind (check_model_order db m_struct) (fun () -> check_model_order db m_flat)

(* SAT-based why_UN enumeration (preprocessing on and off) against the
   powerset oracle, on every derived IDB fact of the model. *)
let check_provenance (t : W.Randprog.t) =
  let program = W.Randprog.program t in
  let db = W.Randprog.database t in
  if D.Database.size db > 9 then
    invalid_arg "Fuzz.check_provenance: database too large for the oracle";
  let model = D.Eval.seminaive program db in
  let goals =
    D.Database.to_list model
    |> List.filter (fun f ->
           D.Program.is_idb program (D.Fact.pred f)
           && not (D.Database.mem db f))
    |> List.sort D.Fact.compare
  in
  if goals = [] then Ok ()
  else begin
    Metrics.incr m_prov_checks;
    let check_goal goal =
      let oracle = Oracle.why_un_powerset program db goal in
      let rec go = function
        | [] -> Ok ()
        | preprocess :: rest ->
          let members =
            P.Enumerate.to_list
              (P.Enumerate.create ~preprocess program db goal)
            |> List.sort D.Fact.Set.compare
          in
          if not (List.equal D.Fact.Set.equal members oracle) then
            Error
              (Printf.sprintf
                 "why_UN(%s) with preprocess=%b: %d member(s) vs %d from the \
                  powerset oracle"
                 (D.Fact.to_string goal) preprocess (List.length members)
                 (List.length oracle))
          else go rest
      in
      go [ true; false ]
    in
    let rec first_error = function
      | [] -> Ok ()
      | g :: rest -> (
        match check_goal g with Ok () -> first_error rest | e -> e)
    in
    first_error goals
  end

(* --- The fuzz loop ----------------------------------------------------- *)

type bug = {
  seed : int;
  iter : int;
  kind : string;       (* "cnf", "engine" or "provenance" *)
  detail : string;     (* solver/family label for context *)
  message : string;
  cnf : Gen.cnf option;           (* shrunk, for kind = "cnf" *)
  prog : W.Randprog.t option;     (* shrunk, for the Datalog kinds *)
}

type summary = {
  s_seed : int;
  s_iters : int;
  s_cnf_checks : int;
  s_engine_checks : int;
  s_prov_checks : int;
  s_bugs : bug list;
}

(* Per-iteration streams derived from the master seed: check order
   never perturbs the instances, so every failure is reproducible from
   (seed, iter) alone. *)
let iter_rng seed i = Util.Rng.create (seed lxor (i * 0x9e3779b1) lxor 0x5deece66)

let gen_cnf_instance rng =
  match Util.Rng.int rng 6 with
  | 0 | 1 ->
    let nvars = Util.Rng.int_in rng 5 12 in
    let ratio = 2.0 +. Util.Rng.float rng 4.0 in
    ("random-3cnf", Gen.random_kcnf rng ~nvars ~ratio)
  | 2 ->
    let nvars = Util.Rng.int_in rng 3 10 in
    let ratio = 1.0 +. Util.Rng.float rng 2.0 in
    ("random-2cnf", Gen.random_kcnf ~k:2 rng ~nvars ~ratio)
  | 3 ->
    let holes = Util.Rng.int_in rng 1 3 in
    let pigeons = Util.Rng.int_in rng 1 (holes + 2) in
    ("pigeonhole", Gen.pigeonhole ~pigeons ~holes)
  | 4 ->
    let length = Util.Rng.int_in rng 2 7 in
    ("xor-chain", Gen.xor_chain ~length ~sat:(Util.Rng.bool rng))
  | _ ->
    let width = Util.Rng.int_in rng 2 3 in
    let height = 2 in
    let colors = Util.Rng.int_in rng 1 2 in
    ("grid-coloring", Gen.grid_coloring ~width ~height ~colors)

let run ?(solvers = default_cnf_solvers ()) ?progress ~seed ~iters () =
  let bugs = ref [] in
  let push b =
    Metrics.incr m_bugs;
    bugs := b :: !bugs
  in
  (* Local tallies: the registry counters only tick when metrics are
     enabled, and shrinking re-enters the checkers — the summary counts
     top-level checks only. *)
  let cnf_checks = ref 0 and engine_checks = ref 0 and prov_checks = ref 0 in
  for i = 0 to iters - 1 do
    Metrics.incr m_iters;
    (match progress with Some f -> f i | None -> ());
    let rng = iter_rng seed i in
    (* CNF differential. *)
    let family, cnf = gen_cnf_instance (Util.Rng.split rng) in
    incr cnf_checks;
    (match check_cnf_with solvers cnf with
    | Ok () -> ()
    | Error message ->
      let failing clauses =
        check_cnf_with solvers { cnf with Gen.clauses } |> Result.is_error
      in
      let clauses = shrink_cnf ~failing cnf.Gen.clauses in
      push
        {
          seed; iter = i; kind = "cnf"; detail = family; message;
          cnf = Some { cnf with Gen.clauses }; prog = None;
        });
    (* Flat-vs-structural engine differential. *)
    let t = W.Randprog.generate (Util.Rng.split rng) in
    incr engine_checks;
    (match check_engine t with
    | Ok () -> ()
    | Error message ->
      let still_failing t' = Result.is_error (check_engine t') in
      let t' = W.Randprog.shrink ~still_failing t in
      push
        {
          seed; iter = i; kind = "engine"; detail = "randprog"; message;
          cnf = None; prog = Some t';
        });
    (* why_UN against the powerset oracle, on a tiny database. *)
    let t =
      W.Randprog.generate ~min_rules:1 ~max_rules:4 ~min_facts:2 ~max_facts:8
        (Util.Rng.split rng)
    in
    incr prov_checks;
    match check_provenance t with
    | Ok () -> ()
    | Error message ->
      let still_failing t' =
        D.Database.size (W.Randprog.database t') <= 9
        && Result.is_error (check_provenance t')
      in
      let t' = W.Randprog.shrink ~still_failing t in
      push
        {
          seed; iter = i; kind = "provenance"; detail = "randprog"; message;
          cnf = None; prog = Some t';
        }
  done;
  {
    s_seed = seed;
    s_iters = iters;
    s_cnf_checks = !cnf_checks;
    s_engine_checks = !engine_checks;
    s_prov_checks = !prov_checks;
    s_bugs = List.rev !bugs;
  }

(* --- Reproducers ------------------------------------------------------- *)

(* The header records everything needed to regenerate the instance:
   master seed, iteration, check kind, and the failure message. The
   instance itself follows, so the file is directly loadable even
   without the fuzzer. *)
let reproducer bug =
  match (bug.cnf, bug.prog) with
  | Some cnf, _ ->
    ( Printf.sprintf "whyfuzz-%06d-%d.cnf" bug.seed bug.iter,
      Gen.to_dimacs
        ~comments:
          [
            Printf.sprintf "whyfuzz seed=%d iter=%d kind=%s family=%s"
              bug.seed bug.iter bug.kind bug.detail;
            bug.message;
            "regenerate: whyfuzz fuzz --seed " ^ string_of_int bug.seed;
          ]
        cnf )
  | None, Some prog ->
    ( Printf.sprintf "whyfuzz-%06d-%d.dl" bug.seed bug.iter,
      Printf.sprintf
        "%% whyfuzz seed=%d iter=%d kind=%s\n%% %s\n%% regenerate: whyfuzz \
         fuzz --seed %d\n%s"
        bug.seed bug.iter bug.kind bug.message bug.seed
        (W.Randprog.to_string prog) )
  | None, None -> invalid_arg "Fuzz.reproducer: bug carries no instance"

let write_reproducers ~dir summary =
  if summary.s_bugs <> [] && not (Sys.file_exists dir) then
    Sys.mkdir dir 0o755;
  List.map
    (fun bug ->
      let name, contents = reproducer bug in
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      path)
    summary.s_bugs

let pp_summary ppf s =
  Format.fprintf ppf
    "fuzz seed %d: %d iteration(s), %d cnf / %d engine / %d provenance \
     check(s), %d bug(s)"
    s.s_seed s.s_iters s.s_cnf_checks s.s_engine_checks s.s_prov_checks
    (List.length s.s_bugs);
  List.iter
    (fun b ->
      Format.fprintf ppf "@.  [%s/%s @@ iter %d] %s" b.kind b.detail b.iter
        b.message)
    s.s_bugs
