(* Tests of whybench's answer checks: each must agree with the
   brute-force why_UN oracle of the hardening library and reject a
   mutated member. Run by [dune runtest]. *)

open Datalog
open Whybench_lib

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let tc_program = fst (Parser.program_of_string Gen.tc_rules)
let node i = Symbol.intern (Gen.node i)
let edge (u, v) = Fact.of_strings "edge" [ Gen.node u; Gen.node v ]

(* Equal families of fact sets, in any order. *)
let same xs ys =
  List.equal Fact.Set.equal (List.sort Fact.Set.compare xs) (List.sort Fact.Set.compare ys)

let subsets facts =
  List.fold_left
    (fun acc f -> acc @ List.map (Fact.Set.add f) acc)
    [ Fact.Set.empty ] facts

(* The walk oracle decides exactly why_UN(tc(a,b)): on random digraphs
   of at most 7 nodes and 8 edges, every subset of the edges is a walk
   member iff the powerset oracle lists it. Graphs include self-loops;
   every third goal has a = b and every other graph gets an edge back
   into the source, so walks through the source twice are exercised. *)
let walk_oracle_matches_powerset () =
  let rng = Util.Rng.create 20240614 in
  let graphs = 220 and nonempty = ref 0 in
  for g = 1 to graphs do
    let n = Util.Rng.int_in rng 2 7 in
    let a = Util.Rng.int rng n in
    let b = if g mod 3 = 0 then a else Util.Rng.int rng n in
    let pairs = Hashtbl.create 16 in
    if g mod 2 = 0 then Hashtbl.replace pairs (Util.Rng.int rng n, a) ();
    while Hashtbl.length pairs < min 8 (Util.Rng.int_in rng 1 (n * n)) do
      Hashtbl.replace pairs (Util.Rng.int rng n, Util.Rng.int rng n) ()
    done;
    let edges = List.map edge (List.of_seq (Hashtbl.to_seq_keys pairs)) in
    let goal = Fact.of_strings "tc" [ Gen.node a; Gen.node b ] in
    let expected = Harden.Oracle.why_un_powerset tc_program (Database.of_list edges) goal in
    if expected <> [] then incr nonempty;
    let walks =
      List.filter (Oracle.walk_member ~a:(node a) ~b:(node b)) (subsets edges)
    in
    check
      (Printf.sprintf "walk oracle on graph %d, %s" g (Fact.to_string goal))
      (same walks expected)
  done;
  check "most random goals have members" (!nonempty > graphs / 3)

(* Dropping a fact from a member, or adding a fact of its closure,
   makes the walk oracle reject it. *)
let walk_oracle_rejects_mutations () =
  let member = Fact.Set.of_list [ edge (0, 1); edge (1, 2) ] in
  let walk = Oracle.walk_member ~a:(node 0) ~b:(node 2) in
  check "path 0-1-2 is a member" (walk member);
  check "dropped edge" (not (walk (Fact.Set.remove (edge (1, 2)) member)));
  check "added closure edge" (not (walk (Fact.Set.add (edge (0, 2)) member)));
  check "added back edge" (not (walk (Fact.Set.add (edge (2, 0)) member)))

(* A non-recursive program small enough for the powerset oracle. *)
let nonrec_program, nonrec_db =
  let program, facts =
    Parser.program_of_string
      "p(X,Z) :- e(X,Y), f(Y,Z).\n\
       p(X,Z) :- g(X,Z).\n\
       e(a,b). f(b,c). g(a,c). e(a,d). f(d,c). f(b,d).\n"
  in
  (program, Database.of_list facts)

let support_oracle_matches_powerset () =
  let goal = Fact.of_strings "p" [ "a"; "c" ] in
  let expected = Harden.Oracle.why_un_powerset nonrec_program nonrec_db goal in
  let found =
    List.filter
      (Oracle.unambiguous_support nonrec_program goal)
      (subsets (Database.to_list nonrec_db))
  in
  check "three members of p(a,c)" (List.length expected = 3);
  check "support oracle = powerset oracle" (same found expected);
  let fact p args = Fact.of_strings p args in
  let member = Fact.Set.of_list [ fact "e" [ "a"; "b" ]; fact "f" [ "b"; "c" ] ] in
  let support = Oracle.unambiguous_support nonrec_program goal in
  check "support oracle: member" (support member);
  check "support oracle: dropped fact" (not (support (Fact.Set.remove (fact "f" [ "b"; "c" ]) member)));
  check "support oracle: added closure fact" (not (support (Fact.Set.add (fact "g" [ "a"; "c" ]) member)))

(* A member with its witness passes; the same witness fails for a
   mutated member, and a witness whose support was corrupted fails. *)
let witness_check () =
  let text = Gen.pointer_program ~seed:3 ~families:2 in
  let program, facts = Parser.program_of_string text in
  let db = Database.of_list facts in
  let model = Eval.seminaive program db in
  let goals = ref [] in
  Database.iter_pred model (Symbol.intern "pt") (fun f -> goals := f :: !goals);
  let tested = ref 0 in
  List.iter
    (fun goal ->
      let closure = Provenance.Closure.build_with_model program ~model db goal in
      let e = Provenance.Enumerate.of_closure closure in
      match Provenance.Enumerate.next_with_witness e with
      | None -> check ("no member for " ^ Fact.to_string goal) false
      | Some (member, dag) ->
        incr tested;
        let ok m d = Oracle.check_witness program db goal m d = Ok () in
        check ("witness of " ^ Fact.to_string goal) (ok member dag);
        (match Fact.Set.elements member with
        | dropped :: _ :: _ ->
          check "witness: dropped fact" (not (ok (Fact.Set.remove dropped member) dag))
        | _ -> ());
        (match
           List.find_opt
             (fun f -> not (Fact.Set.mem f member))
             (Provenance.Closure.db_facts closure)
         with
        | Some extra ->
          check "witness: added closure fact" (not (ok (Fact.Set.add extra member) dag))
        | None -> ());
        (* Corrupt the support: relabel one leaf with a fact that is
           not in the database. The DAG check must reject it even
           against the member it now supports. *)
        let leaf = Fact.Set.min_elt member in
        let bogus = Fact.of_strings "addr" [ "nowhere"; "nothing" ] in
        let nodes =
          Array.map
            (fun (n : Provenance.Proof_dag.node) ->
              if n.rule = None && Fact.equal n.fact leaf then { n with fact = bogus } else n)
            dag.Provenance.Proof_dag.nodes
        in
        let corrupted = { dag with Provenance.Proof_dag.nodes } in
        check "witness: corrupted support" (not (ok member corrupted));
        check "witness: corrupted DAG"
          (not (ok (Fact.Set.add bogus (Fact.Set.remove leaf member)) corrupted)))
    (List.filteri (fun i _ -> i mod 7 = 0) (List.rev !goals));
  check "witness checks ran" (!tested >= 10)

(* The same seed gives the same text; another seed another. *)
let generators_are_seeded () =
  let g s = (Gen.clustered_digraph ~seed:s ~communities:3 ~size:5).Gen.text in
  check "clustered digraph repeats" (g 1 = g 1);
  check "clustered digraph varies" (g 1 <> g 2);
  check "pointer program repeats"
    (Gen.pointer_program ~seed:1 ~families:3 = Gen.pointer_program ~seed:1 ~families:3)

let () =
  let t0 = Unix.gettimeofday () in
  walk_oracle_matches_powerset ();
  walk_oracle_rejects_mutations ();
  support_oracle_matches_powerset ();
  witness_check ();
  generators_are_seeded ();
  (* The time is printed, not asserted: on a shared machine it varies
     with the load, not with correctness. *)
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "test_oracles: %s in %.2f s\n" (if !failures = 0 then "ok" else "FAILED") elapsed;
  if !failures > 0 then exit 1
