(* Property-based tests (qcheck, registered as alcotest cases via
   QCheck_alcotest) on the core data structures and invariants. *)

module D = Datalog
module P = Provenance

let parse_program src = fst (D.Parser.program_of_string src)

(* --- Generators --------------------------------------------------------- *)

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

let const_pool = [| "a"; "b"; "c"; "d" |]

let gen_acc_db =
  (* Random database for the paper's path-accessibility program. *)
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

let acc_program = parse_program {|
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y,Z,X).
|}

(* --- SAT properties ------------------------------------------------------ *)

let prop_cdcl_equals_brute_force =
  QCheck.Test.make ~count:300 ~name:"cdcl agrees with truth table" arb_cnf
    (fun (nvars, clauses) ->
      let s = Sat.Solver.create () in
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) clauses;
      let cdcl = Sat.Solver.solve s = Sat.Solver.Sat in
      let brute = Sat.Reference.brute_force ~nvars clauses <> None in
      cdcl = brute)

let prop_model_satisfies =
  QCheck.Test.make ~count:300 ~name:"models satisfy every clause" arb_cnf
    (fun (nvars, clauses) ->
      let s = Sat.Solver.create () in
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) clauses;
      match Sat.Solver.solve s with
      | Sat.Solver.Unsat -> true
      | Sat.Solver.Sat ->
        let m = Sat.Solver.model s in
        List.for_all
          (List.exists (fun l ->
               if Sat.Lit.sign l then m.(Sat.Lit.var l) else not m.(Sat.Lit.var l)))
          clauses)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dimacs roundtrip" arb_cnf
    (fun (nvars, clauses) ->
      let s = Sat.Dimacs.to_string ~nvars clauses in
      let nvars', clauses' = Sat.Dimacs.of_string s in
      nvars = nvars' && clauses = clauses')

(* --- Provenance properties ----------------------------------------------- *)

let prop_sat_un_equals_naive_un =
  QCheck.Test.make ~count:60 ~name:"sat why_un = compressed-dag why_un"
    arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          let naive = P.Naive.why_un acc_program db goal in
          let sat =
            P.Enumerate.to_list (P.Enumerate.create acc_program db goal)
            |> List.sort D.Fact.Set.compare
          in
          if
            not
              (List.length naive = List.length sat
              && List.for_all2 D.Fact.Set.equal naive sat)
          then ok := false);
      !ok)

let prop_members_derive_goal =
  QCheck.Test.make ~count:60 ~name:"every member re-derives the goal"
    arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          List.iter
            (fun member ->
              if not (D.Eval.holds acc_program (D.Database.of_set member) goal)
              then ok := false)
            (P.Enumerate.to_list ~limit:20 (P.Enumerate.create acc_program db goal)));
      !ok)

let prop_members_are_minimal_witnesses =
  (* Supports contain no fact that the closure does not reach; and every
     member is a subset of the database. *)
  QCheck.Test.make ~count:60 ~name:"members are database subsets"
    arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          List.iter
            (fun member ->
              if not (D.Fact.Set.for_all (D.Database.mem db) member) then
                ok := false)
            (P.Enumerate.to_list ~limit:20 (P.Enumerate.create acc_program db goal)));
      !ok)

let prop_tree_dag_roundtrip =
  QCheck.Test.make ~count:80 ~name:"tree -> dag -> tree preserves support"
    arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          match P.Naive.some_tree acc_program db goal with
          | None -> ok := false
          | Some tree ->
            let dag = P.Proof_dag.of_tree tree in
            if
              not
                (D.Fact.Set.equal (P.Proof_dag.support dag)
                   (P.Proof_tree.support tree))
              || P.Proof_dag.check acc_program db dag <> Ok ()
              || not
                   (D.Fact.Set.equal
                      (P.Proof_tree.support (P.Proof_dag.unravel dag))
                      (P.Proof_tree.support tree))
            then ok := false);
      !ok)

let prop_rank_is_min_depth =
  QCheck.Test.make ~count:80 ~name:"rank = minimal proof tree depth"
    arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let q = P.Explain.query acc_program "a" in
      let model = D.Eval.seminaive acc_program db in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          match P.Naive.min_depth acc_program db goal with
          | None -> ok := false
          | Some d -> (
            (* There is a tree of depth d and none of depth < d; the
               rank descent of [Explain.proof_tree] finds one. *)
            match
              ( P.Naive.some_tree acc_program db goal,
                P.Explain.proof_tree q db goal )
            with
            | None, _ | _, None -> ok := false
            | Some tree, Some descent ->
              if P.Proof_tree.depth tree <> d then ok := false;
              if P.Proof_tree.depth descent <> d then ok := false;
              if d > 0 && P.Naive.count_trees acc_program db goal ~depth:(d - 1) > 0
              then ok := false));
      !ok)

(* --- Linear-program properties -------------------------------------------- *)

let tc_program = parse_program {|
  tc(X,Y) :- edge(X,Y).
  tc(X,Z) :- tc(X,Y), edge(Y,Z).
|}

let gen_graph_db =
  QCheck.Gen.(
    let* n_edges = int_range 1 10 in
    list_repeat n_edges
      (let* x = oneofa [| "g0"; "g1"; "g2"; "g3"; "g4" |] in
       let* y = oneofa [| "g0"; "g1"; "g2"; "g3"; "g4" |] in
       return (D.Fact.of_strings "edge" [ x; y ])))

let arb_graph_db =
  QCheck.make gen_graph_db ~print:(fun facts ->
      String.concat " " (List.map D.Fact.to_string facts))

let prop_linear_members_are_paths =
  (* For transitive closure, every why_UN member is a set of edges that
     alone re-derives the goal, and the smallest member has exactly
     distance(x,y) edges. *)
  QCheck.Test.make ~count:60 ~name:"tc members re-derive; min member = distance"
    arb_graph_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive tc_program db in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "tc") (fun goal ->
          let members =
            P.Enumerate.to_list ~limit:200 (P.Enumerate.create tc_program db goal)
          in
          if members = [] then ok := false;
          List.iter
            (fun m ->
              if not (D.Eval.holds tc_program (D.Database.of_set m) goal) then
                ok := false)
            members;
          (* Minimal member size = rank of the goal (shortest derivation). *)
          match P.Naive.min_depth tc_program db goal with
          | Some d ->
            let smallest =
              List.fold_left (fun acc m -> min acc (D.Fact.Set.cardinal m))
                max_int members
            in
            (* A tc fact of rank d uses exactly d edges on a shortest
               derivation (each step adds one edge). *)
            if smallest > d then ok := false
          | None -> ok := false);
      !ok)

let prop_closure_derivations_complete =
  (* The downward closure records, for every reachable intensional fact,
     exactly the rule instances the engine can derive it with, in the
     engine's order, and keeps the numbering contract of closure.mli;
     a build through a shared instance cache iterates identically. *)
  QCheck.Test.make ~count:60 ~name:"closure hyperedges = engine derivations"
    arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let cache = P.Closure.instance_cache acc_program ~model in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          let closure = P.Closure.build acc_program db goal in
          Array.iter
            (fun fact ->
              if Datalog.Program.is_idb acc_program (D.Fact.pred fact) then begin
                let via_closure =
                  P.Closure.hyperedges_of closure fact
                  |> Array.to_list
                  |> List.map (fun (e : P.Closure.hyperedge) -> e.P.Closure.body)
                in
                let via_engine =
                  D.Eval.derivations acc_program model fact |> List.map snd
                in
                if via_closure <> via_engine then ok := false
              end)
            (P.Closure.nodes closure);
          let cached = P.Closure.build_cached cache db goal in
          if not
               (Test_batch.closure_numbering_ok closure
               && Test_batch.closure_fingerprint closure
                  = Test_batch.closure_fingerprint cached)
          then ok := false);
      !ok)

(* --- Fact ordering laws --------------------------------------------------- *)

let gen_fact =
  QCheck.Gen.(
    let* pred = oneofa [| "p"; "q"; "r" |] in
    let* arity = int_bound 3 in
    let* args = list_repeat arity (oneofa const_pool) in
    return (D.Fact.of_strings pred args))

let arb_fact_triple =
  QCheck.make
    QCheck.Gen.(triple gen_fact gen_fact gen_fact)
    ~print:(fun (a, b, c) ->
      Printf.sprintf "%s %s %s" (D.Fact.to_string a) (D.Fact.to_string b)
        (D.Fact.to_string c))

let prop_fact_order_laws =
  QCheck.Test.make ~count:500 ~name:"fact compare is a total order"
    arb_fact_triple (fun (a, b, c) ->
      let sign x = compare x 0 in
      (* antisymmetry *)
      sign (D.Fact.compare a b) = -sign (D.Fact.compare b a)
      (* consistency with equal *)
      && D.Fact.equal a b = (D.Fact.compare a b = 0)
      (* transitivity (on this triple) *)
      && (not (D.Fact.compare a b <= 0 && D.Fact.compare b c <= 0)
         || D.Fact.compare a c <= 0)
      (* hash respects equality *)
      && (not (D.Fact.equal a b) || D.Fact.hash a = D.Fact.hash b))

let suite =
  ( "properties",
    List.map QCheck_alcotest.to_alcotest
      [
        prop_cdcl_equals_brute_force;
        prop_model_satisfies;
        prop_dimacs_roundtrip;
        prop_sat_un_equals_naive_un;
        prop_members_derive_goal;
        prop_members_are_minimal_witnesses;
        prop_tree_dag_roundtrip;
        prop_rank_is_min_depth;
        prop_fact_order_laws;
        prop_linear_members_are_paths;
        prop_closure_derivations_complete;
      ] )
