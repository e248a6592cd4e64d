(* Tests for the provenance core against the paper's running examples
   (Examples 1–4) and cross-validation of the independent
   implementations: SAT enumeration vs compressed-DAG search vs
   tree-filtering definitions vs materialization vs FO rewriting. *)

module D = Datalog
module P = Provenance

let parse_program src = fst (D.Parser.program_of_string src)

let facts_of_strings l = List.map (fun (p, args) -> D.Fact.of_strings p args) l

let support_set l = D.Fact.Set.of_list (facts_of_strings l)

let sorted_supports = List.sort D.Fact.Set.compare

let supports_testable =
  Alcotest.testable
    (Fmt.list D.Fact.pp_set)
    (fun l1 l2 ->
      List.length l1 = List.length l2 && List.for_all2 D.Fact.Set.equal l1 l2)

let check_supports msg expected actual =
  Alcotest.check supports_testable msg (sorted_supports expected) (sorted_supports actual)

(* The paper's running example: path accessibility (Example 1). *)
let acc_program = parse_program {|
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y,Z,X).
|}

let example1_db =
  D.Database.of_list
    (facts_of_strings
       [ ("s", [ "a" ]); ("t", [ "a"; "a"; "b" ]); ("t", [ "a"; "a"; "c" ]);
         ("t", [ "a"; "a"; "d" ]); ("t", [ "b"; "c"; "a" ]) ])

let example4_db =
  D.Database.of_list
    (facts_of_strings
       [ ("s", [ "a" ]); ("s", [ "b" ]); ("t", [ "a"; "a"; "c" ]);
         ("t", [ "b"; "b"; "c" ]); ("t", [ "c"; "c"; "d" ]) ])

let fact_ad = D.Fact.of_strings "a" [ "d" ]

(* --- Example 2: why((d), D, Q) has exactly two members. --------------- *)

let test_example2_why () =
  let expected =
    [
      support_set [ ("s", [ "a" ]); ("t", [ "a"; "a"; "d" ]) ];
      D.Database.to_set example1_db;
    ]
  in
  check_supports "why((d))" expected (P.Naive.why acc_program example1_db fact_ad)

let test_example2_membership () =
  let small = support_set [ ("s", [ "a" ]); ("t", [ "a"; "a"; "d" ]) ] in
  let full = D.Database.to_set example1_db in
  let missing = support_set [ ("s", [ "a" ]); ("t", [ "a"; "a"; "b" ]) ] in
  Alcotest.(check bool) "small in" true
    (P.Membership.why acc_program example1_db fact_ad small);
  Alcotest.(check bool) "full db in" true
    (P.Membership.why acc_program example1_db fact_ad full);
  Alcotest.(check bool) "wrong subset out" false
    (P.Membership.why acc_program example1_db fact_ad missing);
  (* Subsets missing s(a) can never prove anything. *)
  Alcotest.(check bool) "t facts alone out" false
    (P.Membership.why acc_program example1_db fact_ad
       (support_set [ ("t", [ "a"; "a"; "d" ]) ]))

(* --- Example 4: why_UN((d), D, Q) = the two intuitive explanations. --- *)

let test_example4_why_un () =
  let expected =
    [
      support_set [ ("s", [ "a" ]); ("t", [ "a"; "a"; "c" ]); ("t", [ "c"; "c"; "d" ]) ];
      support_set [ ("s", [ "b" ]); ("t", [ "b"; "b"; "c" ]); ("t", [ "c"; "c"; "d" ]) ];
    ]
  in
  check_supports "naive why_un" expected (P.Naive.why_un acc_program example4_db fact_ad);
  let enumeration = P.Enumerate.create acc_program example4_db fact_ad in
  check_supports "sat why_un" expected (P.Enumerate.to_list enumeration)

let test_example4_whole_db_not_unambiguous () =
  (* D itself is a member of why (via the ambiguous tree of Example 4)
     but NOT of why_UN. *)
  let full = D.Database.to_set example4_db in
  Alcotest.(check bool) "member of why" true
    (P.Membership.why acc_program example4_db fact_ad full);
  Alcotest.(check bool) "not member of why_un" false
    (P.Membership.why_un acc_program example4_db fact_ad full)

(* --- Example 1 proof trees -------------------------------------------- *)

let test_proof_tree_checker () =
  let tree = Option.get (P.Naive.some_tree acc_program example1_db fact_ad) in
  (match P.Proof_tree.check acc_program example1_db tree with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid tree rejected: %s" msg);
  Alcotest.(check bool) "root label" true
    (D.Fact.equal (P.Proof_tree.fact tree) fact_ad);
  (* The minimal tree for a(d) is a(d) <- a(a) <- s(a), with t(a,a,d). *)
  Alcotest.(check int) "depth" 2 (P.Proof_tree.depth tree);
  Alcotest.check
    (Alcotest.testable D.Fact.pp_set D.Fact.Set.equal)
    "support" (support_set [ ("s", [ "a" ]); ("t", [ "a"; "a"; "d" ]) ])
    (P.Proof_tree.support tree)

let test_tree_enumeration_counts () =
  (* At depth 2 the only proof tree of a(d) is the minimal one. *)
  let trees = P.Naive.trees_up_to_depth acc_program example1_db fact_ad ~depth:2 in
  Alcotest.(check int) "depth-2 trees" 1 (List.length trees);
  (* Deeper bounds reveal more trees. *)
  let more = P.Naive.trees_up_to_depth acc_program example1_db fact_ad ~depth:6 in
  Alcotest.(check bool) "more trees at depth 6" true (List.length more > 1)

let test_refined_class_predicates () =
  let trees = P.Naive.trees_up_to_depth acc_program example1_db fact_ad ~depth:6 in
  List.iter
    (fun tree ->
      (* Every unambiguous tree is non-recursive (strict subtree cannot be
         isomorphic to its ancestor). *)
      if P.Proof_tree.is_unambiguous tree then begin
        Alcotest.(check bool) "UN => NR" true (P.Proof_tree.is_non_recursive tree);
        Alcotest.(check int) "UN => scount 1" 1 (P.Proof_tree.scount tree)
      end)
    trees;
  (* Example 1's second tree (deriving a(a) from itself) is recursive;
     such trees exist at depth >= 4. *)
  Alcotest.(check bool) "some recursive tree exists" true
    (List.exists (fun t -> not (P.Proof_tree.is_non_recursive t))
       (P.Naive.trees_up_to_depth acc_program example1_db fact_ad ~depth:6))

(* --- Example 4's ambiguous tree (the paper's Figure) ------------------ *)

let test_example4_ambiguous_tree () =
  (* Build the tree of Example 4 explicitly: a(d) via t(c,c,d) with the
     two a(c) children derived differently (one via s(a), one via s(b)). *)
  let rule1 = List.nth (D.Program.rules acc_program) 0 in
  let rule2 = List.nth (D.Program.rules acc_program) 1 in
  let leaf p args = P.Proof_tree.Leaf (D.Fact.of_strings p args) in
  let a_of x via =
    P.Proof_tree.Node
      { fact = D.Fact.of_strings "a" [ x ]; rule = rule1; children = [ leaf "s" [ via ] ] }
  in
  let a_c_via x =
    P.Proof_tree.Node
      {
        fact = D.Fact.of_strings "a" [ "c" ];
        rule = rule2;
        children = [ a_of x x; a_of x x; leaf "t" [ x; x; "c" ] ];
      }
  in
  let tree =
    P.Proof_tree.Node
      {
        fact = fact_ad;
        rule = rule2;
        children = [ a_c_via "a"; a_c_via "b"; leaf "t" [ "c"; "c"; "d" ] ];
      }
  in
  (match P.Proof_tree.check acc_program example4_db tree with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "example 4 tree rejected: %s" msg);
  Alcotest.(check bool) "non-recursive" true (P.Proof_tree.is_non_recursive tree);
  Alcotest.(check bool) "ambiguous" false (P.Proof_tree.is_unambiguous tree);
  Alcotest.(check bool) "scount 2" true (P.Proof_tree.scount tree = 2);
  Alcotest.check
    (Alcotest.testable D.Fact.pp_set D.Fact.Set.equal)
    "support = whole db" (D.Database.to_set example4_db)
    (P.Proof_tree.support tree)

(* --- Proof DAG compaction and unravelling ----------------------------- *)

let test_dag_roundtrip () =
  let trees = P.Naive.trees_up_to_depth acc_program example1_db fact_ad ~depth:6 in
  List.iter
    (fun tree ->
      let dag = P.Proof_dag.of_tree tree in
      (match P.Proof_dag.check acc_program example1_db dag with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "compacted DAG invalid: %s" msg);
      Alcotest.(check bool) "support preserved" true
        (D.Fact.Set.equal (P.Proof_dag.support dag) (P.Proof_tree.support tree));
      Alcotest.(check bool) "size <= tree size" true
        (P.Proof_dag.size dag <= P.Proof_tree.size tree);
      let tree' = P.Proof_dag.unravel dag in
      Alcotest.(check bool) "unravel support" true
        (D.Fact.Set.equal (P.Proof_tree.support tree') (P.Proof_tree.support tree));
      (match P.Proof_tree.check acc_program example1_db tree' with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "unravelled tree invalid: %s" msg);
      (* Unambiguous tree => one subtree class per fact, so any two DAG
         nodes carrying the same fact are exact copies (they only exist
         because Definition 4 needs one child per body atom). *)
      if P.Proof_tree.is_unambiguous tree then begin
        let by_fact = Hashtbl.create 16 in
        Array.iter
          (fun (node : P.Proof_dag.node) ->
            let key = D.Fact.to_string node.P.Proof_dag.fact in
            match Hashtbl.find_opt by_fact key with
            | Some children ->
              Alcotest.(check (list int)) "copies share children"
                children node.P.Proof_dag.children
            | None -> Hashtbl.add by_fact key node.P.Proof_dag.children)
          dag.P.Proof_dag.nodes
      end)
    trees

let test_compressed_linear () =
  (* For trees without repeated body facts (e.g. transitive closure),
     unambiguous trees compact to genuinely compressed DAGs. *)
  let tc = parse_program {|
    path(X,Y) :- edge(X,Y).
    path(X,Z) :- path(X,Y), edge(Y,Z).
  |} in
  let db =
    D.Database.of_list
      (facts_of_strings
         [ ("edge", [ "a"; "b" ]); ("edge", [ "b"; "c" ]); ("edge", [ "c"; "d" ]) ])
  in
  let goal = D.Fact.of_strings "path" [ "a"; "d" ] in
  let trees = P.Naive.trees_up_to_depth tc db goal ~depth:4 in
  Alcotest.(check bool) "has trees" true (trees <> []);
  List.iter
    (fun tree ->
      Alcotest.(check bool) "tc trees unambiguous" true
        (P.Proof_tree.is_unambiguous tree);
      let dag = P.Proof_dag.of_tree tree in
      Alcotest.(check bool) "compressed" true (P.Proof_dag.is_compressed dag))
    trees

let test_depth_compression () =
  let trees = P.Naive.trees_up_to_depth acc_program example1_db fact_ad ~depth:6 in
  List.iter
    (fun tree ->
      let compressed = P.Proof_dag.compress_depth acc_program tree in
      (match P.Proof_tree.check acc_program example1_db compressed with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "compressed tree invalid: %s" msg);
      Alcotest.(check bool) "support preserved" true
        (D.Fact.Set.equal
           (P.Proof_tree.support compressed)
           (P.Proof_tree.support tree));
      Alcotest.(check bool) "depth not increased" true
        (P.Proof_tree.depth compressed <= P.Proof_tree.depth tree))
    trees

(* --- Downward closure -------------------------------------------------- *)

let test_closure_example1 () =
  let closure = P.Closure.build acc_program example1_db fact_ad in
  Alcotest.(check bool) "derivable" true (P.Closure.derivable closure);
  (* Nodes: a(d), a(a), a(b), a(c), s(a), and the four t facts. *)
  Alcotest.(check int) "nodes" 9 (P.Closure.num_nodes closure);
  Alcotest.(check int) "db facts" 5 (List.length (P.Closure.db_facts closure));
  (* a(d) has exactly one hyperedge: {a(a), t(a,a,d)}. *)
  Alcotest.(check int) "root hyperedges" 1
    (Array.length (P.Closure.hyperedges_of closure fact_ad))

let test_closure_underivable () =
  let closure =
    P.Closure.build acc_program example1_db (D.Fact.of_strings "a" [ "zzz" ])
  in
  Alcotest.(check bool) "not derivable" false (P.Closure.derivable closure);
  let enumeration = P.Enumerate.of_closure closure in
  Alcotest.(check int) "empty enumeration" 0 (P.Enumerate.count enumeration)

let test_closure_stats_consistency () =
  let closure = P.Closure.build acc_program example1_db fact_ad in
  let encoding = P.Encode.make ~capture:true closure in
  let st = P.Encode.stats encoding in
  Alcotest.(check int) "nodes" (P.Closure.num_nodes closure) st.P.Encode.nodes;
  Alcotest.(check int) "clauses = captured" st.P.Encode.clauses
    (List.length (Option.get (P.Encode.captured_clauses encoding)));
  Alcotest.(check bool) "vars counted" true
    (st.P.Encode.variables = Sat.Solver.num_vars (P.Encode.solver encoding));
  Alcotest.(check bool) "hyperedges pruned of self-loops" true
    (st.P.Encode.hyperedges <= P.Closure.num_hyperedges closure)

let test_closure_multi_rule_heads () =
  (* Two rules deriving the same head fact give two hyperedges. *)
  let program = parse_program {|
    q(X) :- e(X).
    q(X) :- f(X).
  |} in
  let db = D.Database.of_list (facts_of_strings [ ("e", [ "a" ]); ("f", [ "a" ]) ]) in
  let goal = D.Fact.of_strings "q" [ "a" ] in
  let closure = P.Closure.build program db goal in
  Alcotest.(check int) "two hyperedges" 2
    (Array.length (P.Closure.hyperedges_of closure goal));
  let family = P.Enumerate.to_list (P.Enumerate.create program db goal) in
  check_supports "two singleton members"
    [ support_set [ ("e", [ "a" ]) ]; support_set [ ("f", [ "a" ]) ] ]
    family

let test_duplicate_body_fact () =
  (* A rule instance whose body repeats a fact: support has it once, the
     hyperedge target set is deduplicated, the full body keeps both. *)
  let program = parse_program "q(X) :- e(X,Y), e(X,Y), g(Y)." in
  let db = D.Database.of_list (facts_of_strings [ ("e", [ "a"; "b" ]); ("g", [ "b" ]) ]) in
  let goal = D.Fact.of_strings "q" [ "a" ] in
  let closure = P.Closure.build program db goal in
  (match P.Closure.hyperedges_of closure goal with
  | [| edge |] ->
    Alcotest.(check int) "body length 3" 3 (List.length edge.P.Closure.body);
    Alcotest.(check int) "targets deduped" 2 (List.length edge.P.Closure.targets)
  | other -> Alcotest.failf "expected one hyperedge, got %d" (Array.length other));
  check_supports "one member"
    [ support_set [ ("e", [ "a"; "b" ]); ("g", [ "b" ]) ] ]
    (P.Enumerate.to_list (P.Enumerate.create program db goal))

(* --- Cross-validation on random instances ------------------------------ *)

let random_acc_db rng =
  let n_const = 3 + Util.Rng.int rng 2 in
  let const i = Printf.sprintf "k%d" i in
  let facts = ref [ D.Fact.of_strings "s" [ const 0 ] ] in
  if Util.Rng.bool rng then facts := D.Fact.of_strings "s" [ const 1 ] :: !facts;
  let n_t = 2 + Util.Rng.int rng 3 in
  for _ = 1 to n_t do
    let x = const (Util.Rng.int rng n_const)
    and y = const (Util.Rng.int rng n_const)
    and z = const (Util.Rng.int rng n_const) in
    facts := D.Fact.of_strings "t" [ x; y; z ] :: !facts
  done;
  D.Database.of_list !facts

let test_random_sat_vs_naive_un () =
  let rng = Util.Rng.create 123 in
  for _ = 1 to 40 do
    let db = random_acc_db rng in
    let model = D.Eval.seminaive acc_program db in
    let goals = ref [] in
    D.Database.iter_pred model (D.Symbol.intern "a") (fun f -> goals := f :: !goals);
    List.iter
      (fun goal ->
        let expected = P.Naive.why_un acc_program db goal in
        let enumeration = P.Enumerate.create acc_program db goal in
        let actual = P.Enumerate.to_list enumeration in
        check_supports
          (Printf.sprintf "why_un of %s" (D.Fact.to_string goal))
          expected actual)
      !goals
  done

let test_random_acyclicity_encodings_agree () =
  let rng = Util.Rng.create 321 in
  for _ = 1 to 25 do
    let db = random_acc_db rng in
    let model = D.Eval.seminaive acc_program db in
    let goals = ref [] in
    D.Database.iter_pred model (D.Symbol.intern "a") (fun f -> goals := f :: !goals);
    List.iter
      (fun goal ->
        let e1 =
          P.Enumerate.create ~acyclicity:P.Encode.Transitive_closure acc_program db goal
        in
        let e2 =
          P.Enumerate.create ~acyclicity:P.Encode.Vertex_elimination acc_program db goal
        in
        check_supports "encodings agree"
          (P.Enumerate.to_list e1) (P.Enumerate.to_list e2))
      !goals
  done

let test_elimination_orders_agree () =
  let rng = Util.Rng.create 432 in
  for _ = 1 to 15 do
    let db = random_acc_db rng in
    let model = D.Eval.seminaive acc_program db in
    D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
        let closure = P.Closure.build acc_program db goal in
        let family order =
          P.Enumerate.to_list
            (P.Enumerate.of_parts closure
               (P.Encode.make ~elimination_order:order closure))
        in
        check_supports "orders agree"
          (family P.Encode.Min_degree)
          (family P.Encode.Input_order))
  done

let test_random_why_un_vs_tree_definition () =
  (* why_UN by its very definition: supports of unambiguous proof trees,
     enumerated exhaustively with a depth bound. The bound must cover all
     unambiguous trees: an unambiguous tree unravels from a compressed
     DAG, whose depth is < #distinct facts in the closure. *)
  let rng = Util.Rng.create 777 in
  for _ = 1 to 15 do
    let db = random_acc_db rng in
    let model = D.Eval.seminaive acc_program db in
    let goals = ref [] in
    D.Database.iter_pred model (D.Symbol.intern "a") (fun f -> goals := f :: !goals);
    List.iter
      (fun goal ->
        let closure = P.Closure.build acc_program db goal in
        let bound = min (P.Closure.num_nodes closure) 6 in
        if P.Naive.count_trees acc_program db goal ~depth:bound <= 5_000 then begin
          let trees = P.Naive.trees_up_to_depth acc_program db goal ~depth:bound in
          let expected =
            List.filter P.Proof_tree.is_unambiguous trees
            |> List.map P.Proof_tree.support
            |> List.sort_uniq D.Fact.Set.compare
          in
          let actual = P.Naive.why_un acc_program db goal in
          (* Every unambiguous tree unravels from a compressed DAG over
             the closure, whose depth is < num_nodes; with a smaller
             bound the tree enumeration may miss deep members, so only
             containment is checked. *)
          if bound >= P.Closure.num_nodes closure - 1 then
            check_supports
              (Printf.sprintf "tree-def why_un of %s" (D.Fact.to_string goal))
              expected actual
          else
            List.iter
              (fun member ->
                Alcotest.(check bool) "tree-def member in why_un" true
                  (List.exists (D.Fact.Set.equal member) actual))
              expected
        end)
      !goals
  done

let test_random_membership_consistency () =
  (* For random subsets D'' of D: membership procedures agree with the
     enumerated families. *)
  let rng = Util.Rng.create 888 in
  for _ = 1 to 8 do
    let db = random_acc_db rng in
    let model = D.Eval.seminaive acc_program db in
    let goals = ref [] in
    D.Database.iter_pred model (D.Symbol.intern "a") (fun f -> goals := f :: !goals);
    let all_facts = Array.of_list (D.Database.to_list db) in
    List.iter
      (fun goal ->
        let why_family = P.Naive.why acc_program db goal in
        let un_family = P.Naive.why_un acc_program db goal in
        for _ = 1 to 10 do
          let candidate =
            Array.fold_left
              (fun acc f -> if Util.Rng.bool rng then D.Fact.Set.add f acc else acc)
              D.Fact.Set.empty all_facts
          in
          let in_why = List.exists (D.Fact.Set.equal candidate) why_family in
          let in_un = List.exists (D.Fact.Set.equal candidate) un_family in
          Alcotest.(check bool) "why membership" in_why
            (P.Membership.why acc_program db goal candidate);
          Alcotest.(check bool) "why_un membership" in_un
            (P.Membership.why_un acc_program db goal candidate)
        done;
        (* Every enumerated member passes its membership test. *)
        List.iter
          (fun member ->
            Alcotest.(check bool) "family member accepted" true
              (P.Membership.why acc_program db goal member))
          why_family;
        List.iter
          (fun member ->
            Alcotest.(check bool) "un family member accepted" true
              (P.Membership.why_un acc_program db goal member);
            (* why_UN ⊆ why. *)
            Alcotest.(check bool) "un subset of why" true
              (List.exists (D.Fact.Set.equal member) why_family))
          un_family)
      !goals
  done

let test_random_nr_md_families () =
  let rng = Util.Rng.create 999 in
  for _ = 1 to 8 do
    let db = random_acc_db rng in
    let model = D.Eval.seminaive acc_program db in
    let goals = ref [] in
    D.Database.iter_pred model (D.Symbol.intern "a") (fun f -> goals := f :: !goals);
    List.iter
      (fun goal ->
        let md_depth = Option.value ~default:0 (P.Naive.min_depth acc_program db goal) in
        if P.Naive.count_trees acc_program db goal ~depth:md_depth <= 20_000 then begin
        let why_family = P.Naive.why acc_program db goal in
        let nr = P.Naive.why_nr acc_program db goal in
        let md = P.Naive.why_md acc_program db goal in
        let un = P.Naive.why_un acc_program db goal in
        (* All refined families are subsets of why. *)
        List.iter
          (fun member ->
            Alcotest.(check bool) "nr ⊆ why" true
              (List.exists (D.Fact.Set.equal member) why_family))
          nr;
        List.iter
          (fun member ->
            Alcotest.(check bool) "md ⊆ why" true
              (List.exists (D.Fact.Set.equal member) why_family))
          md;
        (* UN trees are non-recursive, so why_un ⊆ why_nr. *)
        List.iter
          (fun member ->
            Alcotest.(check bool) "un ⊆ nr" true
              (List.exists (D.Fact.Set.equal member) nr))
          un;
        (* Families are non-empty iff the goal is derivable. *)
        Alcotest.(check bool) "derivable => non-empty" true
          (why_family <> [] && nr <> [] && md <> [] && un <> [])
        end)
      !goals
  done

(* --- Linear program: why_nr = why_un ----------------------------------- *)

let tc_program = parse_program {|
  path(X,Y) :- edge(X,Y).
  path(X,Z) :- path(X,Y), edge(Y,Z).
|}

let test_linear_nr_equals_un () =
  let rng = Util.Rng.create 555 in
  for _ = 1 to 15 do
    let nodes = 3 + Util.Rng.int rng 3 in
    let edges = 2 + Util.Rng.int rng 6 in
    let facts =
      List.init edges (fun _ ->
          D.Fact.of_strings "edge"
            [ Printf.sprintf "g%d" (Util.Rng.int rng nodes);
              Printf.sprintf "g%d" (Util.Rng.int rng nodes) ])
    in
    let db = D.Database.of_list facts in
    let model = D.Eval.seminaive tc_program db in
    D.Database.iter_pred model (D.Symbol.intern "path") (fun goal ->
        check_supports
          (Printf.sprintf "nr = un for %s" (D.Fact.to_string goal))
          (P.Naive.why_nr tc_program db goal)
          (P.Naive.why_un tc_program db goal))
  done

(* --- Materialize vs enumeration on linear non-recursive programs ------- *)

let lnr_program = parse_program {|
  q(X,Z) :- r(X,Y), u(Y,Z).
  ans(X) :- q(X,Z), w(Z).
|}

let test_lnr_why_equals_un () =
  (* For linear non-recursive queries, why = why_UN (every proof tree is
     unambiguous), which the paper uses for the Figure 5 comparison. *)
  let rng = Util.Rng.create 2718 in
  for _ = 1 to 20 do
    let const prefix n = Printf.sprintf "%s%d" prefix (Util.Rng.int rng n) in
    let facts =
      List.concat
        [
          List.init (1 + Util.Rng.int rng 4) (fun _ ->
              D.Fact.of_strings "r" [ const "x" 3; const "y" 3 ]);
          List.init (1 + Util.Rng.int rng 4) (fun _ ->
              D.Fact.of_strings "u" [ const "y" 3; const "z" 3 ]);
          List.init (1 + Util.Rng.int rng 3) (fun _ ->
              D.Fact.of_strings "w" [ const "z" 3 ]);
        ]
    in
    let db = D.Database.of_list facts in
    let model = D.Eval.seminaive lnr_program db in
    D.Database.iter_pred model (D.Symbol.intern "ans") (fun goal ->
        let via_sat = P.Enumerate.to_list (P.Enumerate.create lnr_program db goal) in
        let via_materialize = P.Materialize.why lnr_program db goal in
        check_supports "why = why_un (lnr)" via_materialize via_sat)
  done

let suite =
  let tc = Alcotest.test_case in
  ( "provenance",
    [
      tc "example 2: why family" `Quick test_example2_why;
      tc "example 2: membership" `Quick test_example2_membership;
      tc "example 4: why_un" `Quick test_example4_why_un;
      tc "example 4: db ambiguous" `Quick test_example4_whole_db_not_unambiguous;
      tc "proof tree checker" `Quick test_proof_tree_checker;
      tc "tree enumeration counts" `Quick test_tree_enumeration_counts;
      tc "refined class predicates" `Quick test_refined_class_predicates;
      tc "example 4 ambiguous tree" `Quick test_example4_ambiguous_tree;
      tc "dag roundtrip" `Quick test_dag_roundtrip;
      tc "compressed linear" `Quick test_compressed_linear;
      tc "depth compression" `Quick test_depth_compression;
      tc "closure example 1" `Quick test_closure_example1;
      tc "closure underivable" `Quick test_closure_underivable;
      tc "closure stats consistency" `Quick test_closure_stats_consistency;
      tc "closure multi-rule heads" `Quick test_closure_multi_rule_heads;
      tc "duplicate body fact" `Quick test_duplicate_body_fact;
      tc "random: sat vs naive un" `Quick test_random_sat_vs_naive_un;
      tc "random: acyclicity encodings" `Quick test_random_acyclicity_encodings_agree;
      tc "random: elimination orders" `Quick test_elimination_orders_agree;
      tc "random: un vs tree definition" `Quick test_random_why_un_vs_tree_definition;
      tc "random: membership consistency" `Quick test_random_membership_consistency;
      tc "random: nr/md families" `Quick test_random_nr_md_families;
      tc "linear: nr = un" `Quick test_linear_nr_equals_un;
      tc "lnr: why = un" `Quick test_lnr_why_equals_un;
    ] )
