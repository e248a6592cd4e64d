(* Tests for provenance circuits: circuit evaluation agrees with the
   Kleene fixpoint of Semiring.Eval (and hence with the why-provenance)
   on each bundled semiring. *)

module D = Datalog
module P = Provenance

let parse_program src = fst (D.Parser.program_of_string src)

let acc_program = parse_program {|
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y,Z,X).
|}

let example1_db =
  D.Database.of_list
    (List.map
       (fun (p, args) -> D.Fact.of_strings p args)
       [ ("s", [ "a" ]); ("t", [ "a"; "a"; "b" ]); ("t", [ "a"; "a"; "c" ]);
         ("t", [ "a"; "a"; "d" ]); ("t", [ "b"; "c"; "a" ]) ])

module C_bool = Circuit.Eval (Semiring.Boolean)
module C_trop = Circuit.Eval (Semiring.Tropical)
module C_count = Circuit.Eval (Semiring.Counting)
module C_wit = Circuit.Eval (Semiring.Witness)
module S_trop = Semiring.Eval (Semiring.Tropical)

let test_boolean_reachability () =
  let rng = Util.Rng.create 111 in
  for _ = 1 to 20 do
    let consts = [| "a"; "b"; "c"; "d" |] in
    let facts =
      D.Fact.of_strings "s" [ "a" ]
      :: List.init (2 + Util.Rng.int rng 4) (fun _ ->
             D.Fact.of_strings "t"
               [ Util.Rng.choose rng consts; Util.Rng.choose rng consts;
                 Util.Rng.choose rng consts ])
    in
    let db = D.Database.of_list facts in
    Array.iter
      (fun c ->
        let goal = D.Fact.of_strings "a" [ c ] in
        let closure = P.Closure.build acc_program db goal in
        let circuit = Circuit.of_closure closure in
        Alcotest.(check bool)
          (Printf.sprintf "derivability of %s" (D.Fact.to_string goal))
          (D.Eval.holds acc_program db goal)
          (C_bool.eval circuit))
      consts
  done

let test_tropical_matches_fixpoint () =
  let program = parse_program {|
    tc(X,Y) :- edge(X,Y).
    tc(X,Z) :- tc(X,Y), edge(Y,Z).
  |} in
  let rng = Util.Rng.create 112 in
  for _ = 1 to 15 do
    let facts =
      List.init (3 + Util.Rng.int rng 8) (fun _ ->
          D.Fact.of_strings "edge"
            [ Printf.sprintf "n%d" (Util.Rng.int rng 5);
              Printf.sprintf "n%d" (Util.Rng.int rng 5) ])
    in
    let db = D.Database.of_list facts in
    let model = D.Eval.seminaive program db in
    D.Database.iter_pred model (D.Symbol.intern "tc") (fun goal ->
        let closure = P.Closure.build program db goal in
        let circuit = Circuit.of_closure closure in
        let annotate _ = Semiring.Tropical.finite 1.0 in
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "shortest path %s" (D.Fact.to_string goal))
          (Semiring.Tropical.to_float (S_trop.provenance ~annotate closure))
          (Semiring.Tropical.to_float (C_trop.eval ~annotate circuit)))
  done

let nonrec_program = parse_program {|
  p(X,Y) :- e(X,Y).
  p(X,Z) :- e(X,Y), p2(Y,Z).
  p2(X,Y) :- e(X,Y).
|}

let test_counting_nonrecursive () =
  let db =
    D.Database.of_list
      (List.map
         (fun (x, y) -> D.Fact.of_strings "e" [ x; y ])
         [ ("a", "b"); ("b", "c"); ("a", "c"); ("c", "d"); ("b", "d") ])
  in
  let model = D.Eval.seminaive nonrec_program db in
  D.Database.iter_pred model (D.Symbol.intern "p") (fun goal ->
      let closure = P.Closure.build nonrec_program db goal in
      let circuit = Circuit.of_closure closure in
      Alcotest.(check string)
        (Printf.sprintf "tree count %s" (D.Fact.to_string goal))
        (string_of_int (P.Naive.count_trees nonrec_program db goal ~depth:5))
        (Semiring.Counting.to_string (C_count.eval circuit)))

let test_witness_example1 () =
  (* With enough unrolling, the witness semiring over the circuit gives
     the complete why-provenance of Example 2. *)
  let goal = D.Fact.of_strings "a" [ "d" ] in
  let closure = P.Closure.build acc_program example1_db goal in
  let circuit = Circuit.of_closure ~depth:12 closure in
  let family =
    Semiring.Witness.members
      (C_wit.eval ~annotate:Semiring.Witness.of_fact circuit)
  in
  let expected = P.Materialize.why acc_program example1_db goal in
  Alcotest.(check int) "family size" (List.length expected) (List.length family);
  List.iter2
    (fun m1 m2 -> Alcotest.(check bool) "same member" true (D.Fact.Set.equal m1 m2))
    expected family

let test_sharing () =
  let goal = D.Fact.of_strings "a" [ "d" ] in
  let closure = P.Closure.build acc_program example1_db goal in
  let small = Circuit.of_closure ~depth:3 closure in
  let big = Circuit.of_closure ~depth:12 closure in
  Alcotest.(check bool) "hash-consing keeps circuits small" true
    (Circuit.size big < 400);
  Alcotest.(check bool) "bigger depth, more gates" true
    (Circuit.size big >= Circuit.size small);
  Alcotest.(check int) "depth recorded" 12 (Circuit.depth_used big);
  let dot = Circuit.to_dot big in
  Alcotest.(check bool) "dot non-trivial" true (String.length dot > 100)

let suite =
  let tc = Alcotest.test_case in
  ( "circuit",
    [
      tc "boolean reachability" `Quick test_boolean_reachability;
      tc "tropical fixpoint" `Quick test_tropical_matches_fixpoint;
      tc "counting non-recursive" `Quick test_counting_nonrecursive;
      tc "witness example 1" `Quick test_witness_example1;
      tc "sharing and dot" `Quick test_sharing;
    ] )
