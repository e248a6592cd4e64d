(* SatELite-style preprocessor (Sat.Preprocess) and incremental solver
   tests: equisatisfiability and model reconstruction against the
   truth-table oracle, frozen-variable projection preservation (the
   property the why-provenance pipeline actually relies on), blocking-
   clause model counts across the solver panel, and
   end-to-end enumeration differentials — preprocessed vs raw vs the
   powerset oracle — in every front-end configuration. *)

module D = Datalog
module P = Provenance

let parse_program src = fst (D.Parser.program_of_string src)

(* --- Generators (same shape as test_properties.ml) ---------------------- *)

let gen_lit nvars =
  QCheck.Gen.(
    let* v = int_bound (nvars - 1) in
    let* sign = bool in
    return (if sign then Sat.Lit.pos v else Sat.Lit.neg v))

let gen_cnf =
  QCheck.Gen.(
    let* nvars = int_range 1 7 in
    let* nclauses = int_bound 20 in
    let* clauses =
      list_repeat nclauses
        (let* width = int_range 1 3 in
         list_repeat width (gen_lit nvars))
    in
    return (nvars, clauses))

let arb_cnf =
  QCheck.make gen_cnf ~print:(fun (nvars, clauses) ->
      Sat.Dimacs.to_string ~nvars clauses)

(* CNF plus a random frozen set, for the projection property. *)
let arb_cnf_frozen =
  let gen =
    QCheck.Gen.(
      let* nvars, clauses = gen_cnf in
      let* frozen = list_repeat nvars bool in
      return (nvars, clauses, Array.of_list frozen))
  in
  QCheck.make gen ~print:(fun (nvars, clauses, frozen) ->
      Printf.sprintf "%s frozen:%s"
        (Sat.Dimacs.to_string ~nvars clauses)
        (String.concat ","
           (List.filteri (fun v _ -> frozen.(v)) (List.init nvars string_of_int)
           |> fun l -> if l = [] then [ "-" ] else l)))

let satisfies model clauses =
  List.for_all
    (List.exists (fun l ->
         let v = Sat.Lit.var l in
         v < Array.length model
         && if Sat.Lit.sign l then model.(v) else not model.(v)))
    clauses

(* All models of [clauses] over [0..nvars-1], projected onto the frozen
   variables (as sorted lists of frozen-var polarities). Exponential —
   generator keeps nvars <= 7. *)
let projected_models ~nvars ~frozen clauses =
  let projections = ref [] in
  for mask = 0 to (1 lsl nvars) - 1 do
    let model = Array.init nvars (fun v -> mask land (1 lsl v) <> 0) in
    if satisfies model clauses then begin
      let p =
        List.filteri (fun v _ -> frozen.(v)) (Array.to_list model |> List.mapi (fun v b -> (v, b)))
      in
      if not (List.mem p !projections) then projections := p :: !projections
    end
  done;
  List.sort compare !projections

(* --- Oracle properties ---------------------------------------------------- *)

let prop_equisatisfiable =
  QCheck.Test.make ~count:500 ~name:"simplify preserves satisfiability"
    arb_cnf (fun (nvars, clauses) ->
      let p = Sat.Preprocess.simplify ~nvars ~frozen:(fun _ -> false) clauses in
      let simplified = Sat.Preprocess.clauses p in
      Reference_oracle.satisfiable ~nvars clauses
      = Reference_oracle.satisfiable ~nvars:(Sat.Preprocess.nvars p) simplified)

let prop_extend_model_satisfies_original =
  (* Solve the simplified formula with the CDCL solver, reconstruct the
     eliminated variables, and check the extended model against every
     ORIGINAL clause — the end-to-end soundness of the reconstruction
     stack. *)
  QCheck.Test.make ~count:500 ~name:"extend_model satisfies original clauses"
    arb_cnf (fun (nvars, clauses) ->
      let p = Sat.Preprocess.simplify ~nvars ~frozen:(fun _ -> false) clauses in
      let s = Sat.Solver.create () in
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) (Sat.Preprocess.clauses p);
      match Sat.Solver.solve s with
      | Sat.Solver.Unsat -> not (Reference_oracle.satisfiable ~nvars clauses)
      | Sat.Solver.Sat ->
        let model = Sat.Preprocess.extend_model p (Sat.Solver.model s) in
        satisfies model clauses)

let prop_frozen_projection_preserved =
  (* The pipeline property: enumeration blocks on the projection of the
     model onto the db-fact selector variables, so preprocessing must
     preserve the SET of projections onto the frozen variables exactly
     (not just satisfiability). Subsumption and propagation preserve
     the full model set; BVE of an unfrozen v preserves the model set
     projected onto the remaining variables; frozen vars are exempt
     from BVE — so the frozen projections coincide. *)
  QCheck.Test.make ~count:300 ~name:"frozen projections preserved exactly"
    arb_cnf_frozen (fun (nvars, clauses, frozen) ->
      let p =
        Sat.Preprocess.simplify ~nvars
          ~frozen:(fun v -> v < nvars && frozen.(v))
          clauses
      in
      projected_models ~nvars ~frozen clauses
      = projected_models ~nvars ~frozen (Sat.Preprocess.clauses p))

let prop_frozen_never_eliminated =
  (* Regression: a frozen variable must survive BVE even when its
     elimination would shrink the formula. *)
  QCheck.Test.make ~count:300 ~name:"frozen variables survive BVE"
    arb_cnf_frozen (fun (nvars, clauses, frozen) ->
      let p =
        Sat.Preprocess.simplify ~nvars
          ~frozen:(fun v -> v < nvars && frozen.(v))
          clauses
      in
      List.for_all
        (fun v -> not (frozen.(v) && Sat.Preprocess.is_eliminated p v))
        (List.init nvars Fun.id))

let prop_idempotent =
  (* Running the simplifier on its own output (with enough rounds to
     have reached the fixpoint the first time) finds nothing left to
     do: no eliminations, subsumptions, strengthenings, or failed
     literals. Top-level units re-fix on reload, so fixed_vars is
     exempt. *)
  QCheck.Test.make ~count:300 ~name:"simplify is idempotent at fixpoint"
    arb_cnf (fun (nvars, clauses) ->
      let config = { Sat.Preprocess.default with max_rounds = 20 } in
      let p =
        Sat.Preprocess.simplify ~config ~nvars ~frozen:(fun _ -> false) clauses
      in
      if Sat.Preprocess.unsat p then true
      else begin
        let p2 =
          Sat.Preprocess.simplify ~config ~nvars:(Sat.Preprocess.nvars p)
            ~frozen:(fun _ -> false)
            (Sat.Preprocess.clauses p)
        in
        let s = Sat.Preprocess.stats p2 in
        s.Sat.Preprocess.eliminated_vars = 0
        && s.Sat.Preprocess.subsumed_clauses = 0
        && s.Sat.Preprocess.strengthened_clauses = 0
        && s.Sat.Preprocess.clauses = s.Sat.Preprocess.original_clauses
      end)

let prop_dimacs_roundtrip_stable =
  (* Simplified output survives a DIMACS print/parse round trip and
     simplifies to itself afterwards — what the satsolve front end
     relies on when fed an already-preprocessed file. *)
  QCheck.Test.make ~count:200 ~name:"dimacs round-trip of simplified output"
    arb_cnf (fun (nvars, clauses) ->
      let config = { Sat.Preprocess.default with max_rounds = 20 } in
      let p =
        Sat.Preprocess.simplify ~config ~nvars ~frozen:(fun _ -> false) clauses
      in
      if Sat.Preprocess.unsat p then true
      else begin
        let n = Sat.Preprocess.nvars p in
        let text = Sat.Dimacs.to_string ~nvars:n (Sat.Preprocess.clauses p) in
        let n', clauses' = Sat.Dimacs.of_string text in
        let p2 =
          Sat.Preprocess.simplify ~config ~nvars:n' ~frozen:(fun _ -> false)
            clauses'
        in
        let s = Sat.Preprocess.stats p2 in
        s.Sat.Preprocess.clauses = s.Sat.Preprocess.original_clauses
        && s.Sat.Preprocess.eliminated_vars = 0
      end)

(* Random 3-CNFs over 12-16 variables, near and below the phase
   transition: enough models that blocking them all drives the solver
   through restarts and learnt-clause reductions. *)
let arb_3cnf =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 12 16 in
      let* nclauses = int_range (3 * nvars) (9 * nvars / 2) in
      let* clauses = list_repeat nclauses (list_repeat 3 (gen_lit nvars)) in
      return (nvars, clauses))
  in
  QCheck.make gen ~print:(fun (nvars, clauses) ->
      Sat.Dimacs.to_string ~nvars clauses)

let prop_inprocessing_config_sound =
  (* A learnt clause that is not implied can survive one solve and
     still end an enumeration early, once blocking clauses steer the
     search onto it; only the full count shows it. *)
  QCheck.Test.make ~count:400 ~name:"panel enumeration counts = oracle"
    arb_3cnf (fun (nvars, clauses) ->
      let expected = Sat.Reference.count_models ~nvars clauses in
      List.for_all
        (fun (name, config) ->
          let s =
            Harden.Fuzz.pipeline_solver ~name ~config ~preprocess:false ()
          in
          List.length (s.Harden.Fuzz.cs_enumerate ~limit:max_int ~nvars clauses)
          = expected)
        Harden.Fuzz.panel_configs)

(* --- Enumeration differentials ------------------------------------------- *)

let acc_program = parse_program {|
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y,Z,X).
|}

let const_pool = [| "a"; "b"; "c"; "d" |]

let gen_acc_db =
  QCheck.Gen.(
    let* n_t = int_range 1 5 in
    let* t_facts =
      list_repeat n_t
        (let* x = oneofa const_pool in
         let* y = oneofa const_pool in
         let* z = oneofa const_pool in
         return (D.Fact.of_strings "t" [ x; y; z ]))
    in
    let* extra_source = bool in
    let sources =
      D.Fact.of_strings "s" [ "a" ]
      :: (if extra_source then [ D.Fact.of_strings "s" [ "b" ] ] else [])
    in
    return (sources @ t_facts))

let arb_acc_db =
  QCheck.make gen_acc_db ~print:(fun facts ->
      String.concat " " (List.map D.Fact.to_string facts))

let sorted_members e = P.Enumerate.to_list e |> List.sort D.Fact.Set.compare

let same_families a b =
  List.length a = List.length b && List.for_all2 D.Fact.Set.equal a b

(* Every goal of the model checked against the raw enumeration and the
   powerset oracle in one configuration of the enumerator. *)
let differential ~name make_enum =
  QCheck.Test.make ~count:40 ~name arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          let pre = make_enum acc_program db goal |> sorted_members in
          let raw =
            P.Enumerate.create ~preprocess:false acc_program db goal
            |> sorted_members
          in
          let oracle = Reference_oracle.why_un_powerset acc_program db goal in
          if not (same_families pre raw && same_families pre oracle) then
            ok := false);
      !ok)

let prop_enum_preprocessed_equals_raw =
  differential ~name:"preprocessed why_un = raw = powerset oracle"
    (fun program db goal -> P.Enumerate.create program db goal)

let prop_enum_smallest_first =
  differential ~name:"smallest-first: preprocessed = raw = oracle"
    (fun program db goal ->
      P.Enumerate.create ~smallest_first:true program db goal)

let prop_batch_preprocessed_equals_raw =
  (* The batch front end with a worker pool: per-tuple member lists must
     be identical with preprocessing on and off, whatever domain hosts
     the tuple. *)
  QCheck.Test.make ~count:20 ~name:"batch --jobs 4: preprocessed = raw"
    arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let goals = ref [] in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          goals := goal :: !goals);
      let spec = P.Batch.Facts (List.rev !goals) in
      let run preprocess =
        (P.Batch.run ~jobs:4 ~preprocess acc_program db spec).P.Batch.results
        |> List.map (fun (r : P.Batch.result) ->
               (r.P.Batch.fact, List.sort D.Fact.Set.compare r.P.Batch.members))
      in
      let pre = run true and raw = run false in
      List.length pre = List.length raw
      && List.for_all2
           (fun (f1, m1) (f2, m2) ->
             D.Fact.equal f1 f2 && same_families m1 m2)
           pre raw)

(* --- Unit regressions ----------------------------------------------------- *)

let test_pure_literal () =
  (* x0 occurs only positively: BVE's 0-resolvent case deletes both
     clauses and reconstruction must set x0 so they hold. x1 is frozen
     and subsumption is off, so x0 is the only move — otherwise the
     preprocessor (correctly) eliminates x1 or strengthens the pair to
     the unit x0 instead. *)
  let clauses =
    [ [ Sat.Lit.pos 0; Sat.Lit.pos 1 ]; [ Sat.Lit.pos 0; Sat.Lit.neg 1 ] ]
  in
  let config =
    {
      Sat.Preprocess.default with
      subsumption = false;
      self_subsumption = false;
    }
  in
  let p = Sat.Preprocess.simplify ~config ~nvars:2 ~frozen:(fun v -> v = 1) clauses in
  Alcotest.(check int) "all clauses eliminated" 0
    (List.length (Sat.Preprocess.clauses p));
  let model = Sat.Preprocess.extend_model p [| false; false |] in
  Alcotest.(check bool) "extended model satisfies" true (satisfies model clauses)

let test_unsat_detected () =
  let clauses = [ [ Sat.Lit.pos 0 ]; [ Sat.Lit.neg 0 ] ] in
  let p = Sat.Preprocess.simplify ~nvars:1 ~frozen:(fun _ -> false) clauses in
  Alcotest.(check bool) "refuted outright" true (Sat.Preprocess.unsat p);
  Alcotest.(check bool) "empty clause in output" true
    (List.mem [] (Sat.Preprocess.clauses p))

let test_frozen_blocks_elimination () =
  (* Same pure literal as above, but frozen: it must survive, clauses
     intact (modulo subsumption, which doesn't apply here). *)
  let clauses =
    [ [ Sat.Lit.pos 0; Sat.Lit.pos 1 ]; [ Sat.Lit.pos 0; Sat.Lit.neg 1 ] ]
  in
  let p = Sat.Preprocess.simplify ~nvars:2 ~frozen:(fun v -> v = 0) clauses in
  Alcotest.(check bool) "frozen var kept" false (Sat.Preprocess.is_eliminated p 0)

let suite =
  ( "preprocess",
    List.map QCheck_alcotest.to_alcotest
      [
        prop_equisatisfiable;
        prop_extend_model_satisfies_original;
        prop_frozen_projection_preserved;
        prop_frozen_never_eliminated;
        prop_idempotent;
        prop_dimacs_roundtrip_stable;
        prop_inprocessing_config_sound;
        prop_enum_preprocessed_equals_raw;
        prop_enum_smallest_first;
        prop_batch_preprocessed_equals_raw;
      ]
    @ [
        Alcotest.test_case "pure literal reconstruction" `Quick test_pure_literal;
        Alcotest.test_case "top-level conflict refutes" `Quick test_unsat_detected;
        Alcotest.test_case "frozen blocks elimination" `Quick
          test_frozen_blocks_elimination;
      ] )
