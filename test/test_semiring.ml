(* Tests for the semiring provenance module: the Boolean instance is
   derivability, the Witness instance recovers why(t̄, D, Q) exactly,
   Counting matches the tree-count oracle on non-recursive inputs, and
   Tropical computes cheapest derivations. *)

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

module Bool_eval = Semiring.Eval (Semiring.Boolean)
module Count_eval = Semiring.Eval (Semiring.Counting)
module Trop_eval = Semiring.Eval (Semiring.Tropical)
module Witness_eval = Semiring.Eval (Semiring.Witness)

let test_boolean_is_derivability () =
  let rng = Util.Rng.create 51 in
  for _ = 1 to 20 do
    let consts = [| "a"; "b"; "c" |] in
    let facts =
      D.Fact.of_strings "s" [ "a" ]
      :: List.init (1 + Util.Rng.int rng 4) (fun _ ->
             D.Fact.of_strings "t"
               [ Util.Rng.choose rng consts; Util.Rng.choose rng consts;
                 Util.Rng.choose rng consts ])
    in
    let db = D.Database.of_list facts in
    Array.iter
      (fun c ->
        let goal = D.Fact.of_strings "a" [ c ] in
        Alcotest.(check bool)
          (Printf.sprintf "derivability of %s" (D.Fact.to_string goal))
          (D.Eval.holds acc_program db goal)
          (Bool_eval.provenance_of acc_program db goal))
      consts
  done

let test_witness_is_why_provenance () =
  let goal = D.Fact.of_strings "a" [ "d" ] in
  let witness =
    Witness_eval.provenance_of ~annotate:Semiring.Witness.of_fact acc_program
      example1_db goal
  in
  let via_materialize = P.Materialize.why acc_program example1_db goal in
  let members = Semiring.Witness.members witness in
  Alcotest.(check int) "family size" (List.length via_materialize)
    (List.length members);
  List.iter2
    (fun m1 m2 ->
      Alcotest.(check bool) "same member" true (D.Fact.Set.equal m1 m2))
    via_materialize members

let test_witness_random () =
  let rng = Util.Rng.create 52 in
  for _ = 1 to 15 do
    let consts = [| "a"; "b"; "c"; "d" |] in
    let facts =
      D.Fact.of_strings "s" [ "a" ]
      :: List.init (2 + Util.Rng.int rng 3) (fun _ ->
             D.Fact.of_strings "t"
               [ Util.Rng.choose rng consts; Util.Rng.choose rng consts;
                 Util.Rng.choose rng consts ])
    in
    let db = D.Database.of_list facts in
    let model = D.Eval.seminaive acc_program db in
    D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
        let witness =
          Witness_eval.provenance_of ~annotate:Semiring.Witness.of_fact
            acc_program db goal
        in
        let expected = P.Materialize.why acc_program db goal in
        Alcotest.(check int)
          (Printf.sprintf "family of %s" (D.Fact.to_string goal))
          (List.length expected)
          (List.length (Semiring.Witness.members witness)))
  done

let nonrec_program = parse_program {|
  p(X,Y) :- e(X,Y).
  p(X,Z) :- e(X,Y), p2(Y,Z).
  p2(X,Y) :- e(X,Y).
|}

let test_counting_nonrecursive () =
  (* On a non-recursive program, the counting semiring equals the number
     of proof trees (which the DP oracle counts). *)
  let db =
    D.Database.of_list
      (List.map
         (fun (x, y) -> D.Fact.of_strings "e" [ x; y ])
         [ ("a", "b"); ("b", "c"); ("a", "c"); ("c", "d"); ("b", "d") ])
  in
  let model = D.Eval.seminaive nonrec_program db in
  D.Database.iter_pred model (D.Symbol.intern "p") (fun goal ->
      let counted = Count_eval.provenance_of nonrec_program db goal in
      let expected = P.Naive.count_trees nonrec_program db goal ~depth:5 in
      Alcotest.(check string)
        (Printf.sprintf "count of %s" (D.Fact.to_string goal))
        (string_of_int expected)
        (Semiring.Counting.to_string counted))

let test_counting_saturates_on_recursion () =
  (* Example 1 has infinitely many proof trees of a(d): the counter must
     saturate rather than loop forever. *)
  let goal = D.Fact.of_strings "a" [ "d" ] in
  let counted = Count_eval.provenance_of acc_program example1_db goal in
  Alcotest.(check bool) "saturated" true (Semiring.Counting.saturated counted);
  Alcotest.(check string) "prints infinity" "∞"
    (Semiring.Counting.to_string counted)

let test_tropical_cheapest_derivation () =
  (* tc over a weighted graph: cheapest derivation = shortest path when
     each edge is annotated with its weight. *)
  let program = parse_program {|
    tc(X,Y) :- edge(X,Y).
    tc(X,Z) :- tc(X,Y), edge(Y,Z).
  |} in
  let edges = [ ("a", "b", 1.0); ("b", "c", 2.0); ("a", "c", 10.0); ("c", "d", 1.0) ] in
  let db =
    D.Database.of_list
      (List.map (fun (x, y, _) -> D.Fact.of_strings "edge" [ x; y ]) edges)
  in
  let annotate fact =
    let x = D.Symbol.name (D.Fact.args fact).(0)
    and y = D.Symbol.name (D.Fact.args fact).(1) in
    let _, _, w = List.find (fun (a, b, _) -> a = x && b = y) edges in
    Semiring.Tropical.finite w
  in
  let cost goal_args =
    Semiring.Tropical.to_float
      (Trop_eval.provenance_of ~annotate program db
         (D.Fact.of_strings "tc" goal_args))
  in
  Alcotest.(check (float 1e-9)) "a->c shortest" 3.0 (cost [ "a"; "c" ]);
  Alcotest.(check (float 1e-9)) "a->d shortest" 4.0 (cost [ "a"; "d" ]);
  Alcotest.(check (float 1e-9)) "underivable" Float.infinity (cost [ "d"; "a" ])

let test_tropical_underivable_is_zero () =
  let goal = D.Fact.of_strings "a" [ "nope" ] in
  Alcotest.(check (float 1e-9)) "zero element" Float.infinity
    (Semiring.Tropical.to_float
       (Trop_eval.provenance_of acc_program example1_db goal))

let suite =
  let tc = Alcotest.test_case in
  ( "semiring",
    [
      tc "boolean = derivability" `Quick test_boolean_is_derivability;
      tc "witness = why (example 1)" `Quick test_witness_is_why_provenance;
      tc "witness = why (random)" `Quick test_witness_random;
      tc "counting non-recursive" `Quick test_counting_nonrecursive;
      tc "counting saturates" `Quick test_counting_saturates_on_recursion;
      tc "tropical shortest path" `Quick test_tropical_cheapest_derivation;
      tc "tropical underivable" `Quick test_tropical_underivable_is_zero;
    ] )
