(* Tests for the Soufflé-style trace provenance: the reconstructed
   witness is a valid, unambiguous, minimal-depth proof tree whose
   support is a member of why_UN. *)

module D = Datalog
module P = Provenance

let parse_program src = fst (D.Parser.program_of_string src)

let acc_program = parse_program {|
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y,Z,X).
|}

let random_acc_db rng =
  let consts = [| "a"; "b"; "c"; "d" |] in
  D.Database.of_list
    (D.Fact.of_strings "s" [ "a" ]
    :: List.init (2 + Util.Rng.int rng 4) (fun _ ->
           D.Fact.of_strings "t"
             [ Util.Rng.choose rng consts; Util.Rng.choose rng consts;
               Util.Rng.choose rng consts ]))

let test_witness_properties () =
  let rng = Util.Rng.create 91 in
  for _ = 1 to 25 do
    let db = random_acc_db rng in
    let trace = P.Trace.record acc_program db in
    D.Database.iter_pred (P.Trace.model trace) (D.Symbol.intern "a") (fun goal ->
        match P.Trace.proof_tree trace goal with
        | None -> Alcotest.failf "no witness for %s" (D.Fact.to_string goal)
        | Some tree ->
          (match P.Proof_tree.check acc_program db tree with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "invalid witness: %s" msg);
          Alcotest.(check bool) "root" true
            (D.Fact.equal (P.Proof_tree.fact tree) goal);
          Alcotest.(check bool) "unambiguous" true
            (P.Proof_tree.is_unambiguous tree);
          (* Minimal depth = rank (see Trace implementation note). *)
          (match P.Naive.min_depth acc_program db goal with
          | Some d ->
            Alcotest.(check int)
              (Printf.sprintf "minimal depth of %s" (D.Fact.to_string goal))
              d (P.Proof_tree.depth tree)
          | None -> Alcotest.fail "model fact must have a rank");
          (* Support shortcut agrees with the tree. *)
          (match P.Trace.support trace goal with
          | Some s ->
            Alcotest.(check bool) "support agrees" true
              (D.Fact.Set.equal s (P.Proof_tree.support tree))
          | None -> Alcotest.fail "support must exist");
          (* The support is a member of why_UN. *)
          Alcotest.(check bool) "member of why_un" true
            (P.Membership.why_un acc_program db goal (P.Proof_tree.support tree)))
  done

let test_db_facts_are_leaves () =
  let db = random_acc_db (Util.Rng.create 92) in
  let trace = P.Trace.record acc_program db in
  D.Database.iter
    (fun f ->
      Alcotest.(check bool) "db fact has no derivation" true
        (P.Trace.derivation trace f = None);
      match P.Trace.proof_tree trace f with
      | Some (P.Proof_tree.Leaf f') ->
        Alcotest.(check bool) "leaf witness" true (D.Fact.equal f f')
      | _ -> Alcotest.fail "db fact witness must be a leaf")
    db

let test_underivable () =
  let db = random_acc_db (Util.Rng.create 93) in
  let trace = P.Trace.record acc_program db in
  let bogus = D.Fact.of_strings "a" [ "nothere" ] in
  Alcotest.(check bool) "no tree" true (P.Trace.proof_tree trace bogus = None);
  Alcotest.(check bool) "no support" true (P.Trace.support trace bogus = None)

let test_on_workload () =
  let scenario = Workloads.Galen.scenario () in
  let db = Workloads.Galen.ontology ~seed:9 ~classes:60 () in
  let program = scenario.Workloads.Scenario.program in
  let trace = P.Trace.record program db in
  let answers = Workloads.Scenario.pick_answers ~seed:4 scenario db 5 in
  List.iter
    (fun goal ->
      match P.Trace.proof_tree trace goal with
      | None -> Alcotest.failf "no witness for %s" (D.Fact.to_string goal)
      | Some tree -> (
        Alcotest.(check bool) "valid" true
          (P.Proof_tree.check program db tree = Ok ());
        Alcotest.(check bool) "unambiguous" true (P.Proof_tree.is_unambiguous tree);
        (* The trace support must show up in the SAT enumeration. *)
        let support = P.Proof_tree.support tree in
        let e = P.Enumerate.create program db goal in
        match
          List.find_opt (D.Fact.Set.equal support) (P.Enumerate.to_list ~limit:500 e)
        with
        | Some _ -> ()
        | None ->
          (* It must at least pass the membership check (the member cap
             may hide it in pathological cases). *)
          Alcotest.(check bool) "membership" true
            (P.Membership.why_un program db goal support)))
    answers

(* A layered tc graph: s, [layers] layers of [width] nodes with
   complete bipartite edges between neighbouring layers, and t. tc(s,t)
   has width^layers proof trees of minimal depth, so [whyprov tree] must
   descend by rank instead of listing trees. *)
let layered_db ~width ~layers =
  let node l i = Printf.sprintf "n%d_%d" l i in
  let edge x y = D.Fact.of_strings "edge" [ x; y ] in
  let inner =
    List.init (layers - 1) (fun l ->
        List.init width (fun i ->
            List.init width (fun j -> edge (node l i) (node (l + 1) j))))
    |> List.concat |> List.concat
  in
  D.Database.of_list
    (List.init width (fun i -> edge "s" (node 0 i))
    @ inner
    @ List.init width (fun i -> edge (node (layers - 1) i) "t"))

let test_layered_tree () =
  let program =
    parse_program "tc(X,Y) :- edge(X,Y). tc(X,Z) :- tc(X,Y), edge(Y,Z)."
  in
  let db = layered_db ~width:5 ~layers:10 in
  Alcotest.(check int) "edges" 235 (D.Database.size db);
  let q = P.Explain.query program "tc" in
  let goal = P.Explain.goal q [ "s"; "t" ] in
  match P.Explain.proof_tree q db goal with
  | None -> Alcotest.fail "tc(s,t) must have a proof tree"
  | Some tree ->
    Alcotest.(check bool) "valid" true (P.Proof_tree.check program db tree = Ok ());
    Alcotest.(check (option int))
      "minimal depth" (P.Naive.min_depth program db goal)
      (Some (P.Proof_tree.depth tree));
    Alcotest.(check bool) "member of why_un" true
      (P.Membership.why_un program db goal (P.Proof_tree.support tree))

let suite =
  let tc = Alcotest.test_case in
  ( "trace",
    [
      tc "witness properties" `Quick test_witness_properties;
      tc "db facts are leaves" `Quick test_db_facts_are_leaves;
      tc "underivable" `Quick test_underivable;
      tc "workload witnesses" `Quick test_on_workload;
      tc "layered graph tree" `Quick test_layered_tree;
    ] )
