(* Batched multi-tuple enumeration (Provenance.Batch): the worker-pool
   fan-out must be invisible in the results. Sequential loop, batch with
   1 worker and batch with several workers all have to produce the same
   members in the same order, and on tiny instances they must agree
   with the powerset brute-force oracle. *)

module D = Datalog
module P = Provenance

let parse_program src = fst (D.Parser.program_of_string src)

let tc_program = parse_program {|
  tc(X,Y) :- edge(X,Y).
  tc(X,Z) :- tc(X,Y), edge(Y,Z).
|}

let acc_program = parse_program {|
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y,Z,X).
|}

let fact = D.Fact.of_strings

let edge_db edges =
  D.Database.of_list (List.map (fun (x, y) -> fact "edge" [ x; y ]) edges)

(* The reference the batch subsystem must reproduce byte-for-byte: one
   independent Enumerate.create pipeline per answer, in sorted order.
   Capped: dense graphs have exponentially many members per tuple. *)
let member_cap = 30

let sequential_members program db goal =
  P.Enumerate.to_list ~limit:member_cap (P.Enumerate.create program db goal)

let check_batch_equals_sequential program db pred jobs =
  let outcome =
    P.Batch.run ~jobs ~limit:member_cap program db
      (P.Batch.All_answers (D.Symbol.intern pred))
  in
  List.for_all
    (fun (r : P.Batch.result) ->
      let expected = sequential_members program db r.P.Batch.fact in
      (r.P.Batch.status = P.Batch.Complete
      || r.P.Batch.status = P.Batch.Limit_reached)
      && List.length expected = List.length r.P.Batch.members
      && List.for_all2 D.Fact.Set.equal expected r.P.Batch.members)
    outcome.P.Batch.results

(* --- Generators ---------------------------------------------------------- *)

let gen_graph_db =
  QCheck.Gen.(
    let* n_edges = int_range 1 7 in
    list_repeat n_edges
      (let* x = oneofa [| "b0"; "b1"; "b2"; "b3" |] in
       let* y = oneofa [| "b0"; "b1"; "b2"; "b3" |] in
       return (fact "edge" [ x; y ])))

let arb_graph_db =
  QCheck.make gen_graph_db ~print:(fun facts ->
      String.concat " " (List.map D.Fact.to_string facts))

let gen_tiny_graph_db =
  QCheck.Gen.(
    let* n_edges = int_range 1 4 in
    list_repeat n_edges
      (let* x = oneofa [| "b0"; "b1"; "b2" |] in
       let* y = oneofa [| "b0"; "b1"; "b2" |] in
       return (fact "edge" [ x; y ])))

let arb_tiny_graph_db =
  QCheck.make gen_tiny_graph_db ~print:(fun facts ->
      String.concat " " (List.map D.Fact.to_string facts))

(* --- Batch = sequential (the tentpole invariant) ------------------------- *)

let prop_batch_equals_sequential =
  QCheck.Test.make ~count:40
    ~name:"batch jobs∈{1,2,4} = sequential per-tuple enumeration"
    arb_graph_db (fun facts ->
      let db = D.Database.of_list facts in
      List.for_all
        (fun jobs -> check_batch_equals_sequential tc_program db "tc" jobs)
        [ 1; 2; 4 ])

let prop_batch_equals_sequential_nonlinear =
  QCheck.Test.make ~count:25
    ~name:"batch = sequential on the path-accessibility program"
    arb_tiny_graph_db (fun edges ->
      (* Reuse the tiny edge pool as t-facts to exercise a non-linear rule. *)
      let facts =
        fact "s" [ "b0" ]
        :: List.map
             (fun e ->
               let args = Array.to_list (Array.map D.Symbol.name (D.Fact.args e)) in
               fact "t" (args @ [ "b2" ]))
             edges
      in
      let db = D.Database.of_list facts in
      List.for_all
        (fun jobs -> check_batch_equals_sequential acc_program db "a" jobs)
        [ 1; 2; 4 ])

(* --- Differential: batch vs powerset brute force ------------------------- *)

let prop_batch_matches_powerset_oracle =
  QCheck.Test.make ~count:20 ~name:"batch members = powerset oracle (tiny)"
    arb_tiny_graph_db (fun facts ->
      let db = D.Database.of_list facts in
      let outcome =
        P.Batch.run ~jobs:2 tc_program db
          (P.Batch.All_answers (D.Symbol.intern "tc"))
      in
      List.for_all
        (fun (r : P.Batch.result) ->
          let oracle = Reference_oracle.why_un_powerset tc_program db r.P.Batch.fact in
          let got = List.sort D.Fact.Set.compare r.P.Batch.members in
          List.length oracle = List.length got
          && List.for_all2 D.Fact.Set.equal oracle got)
        outcome.P.Batch.results)

(* --- DRAT certification of terminal UNSAT answers ------------------------ *)

let test_batch_terminal_unsat_certified () =
  (* Same per-tuple pipeline the batch workers run, with proof logging
     switched on through Encode.make: after draining a tuple, the
     solver's terminal UNSAT answer must check against the encoding
     clauses plus the emitted blocking clauses. *)
  let db = edge_db [ ("b0", "b1"); ("b1", "b2"); ("b0", "b2"); ("b2", "b3") ] in
  let model = D.Eval.seminaive tc_program db in
  let cache = P.Closure.instance_cache tc_program ~model in
  let certified = ref 0 in
  D.Database.iter_pred model (D.Symbol.intern "tc") (fun goal ->
      let closure = P.Closure.build_cached cache db goal in
      let encoding = P.Encode.make ~capture:true ~proof_logging:true closure in
      let e = P.Enumerate.of_parts closure encoding in
      let members = ref [] in
      let rec drain () =
        match P.Enumerate.next e with
        | None -> ()
        | Some m ->
          members := m :: !members;
          drain ()
      in
      drain ();
      let original =
        Option.get (P.Encode.captured_clauses encoding)
        @ List.map (P.Encode.blocking_clause encoding) !members
      in
      let solver = P.Encode.solver encoding in
      let nvars = Sat.Solver.num_vars solver in
      match Sat.Drat.check ~nvars ~original ~proof:(Sat.Solver.proof solver) with
      | Ok () -> incr certified
      | Error msg ->
        Alcotest.failf "UNSAT certificate for %s rejected: %s"
          (D.Fact.to_string goal) msg);
  Alcotest.(check bool) "certified some tuples" true (!certified >= 4)

(* --- next_limited resume semantics --------------------------------------- *)

let test_next_limited_resume () =
  (* A 3SAT reduction instance makes the solver actually conflict, so a
     1-conflict budget forces Gave_up; resuming must lose no members
     and produce exactly the unbudgeted enumeration. (A 0 budget would
     give up before each first conflict and never progress.) Built with
     ~preprocess:false on both sides: the simplified formula is easy
     enough that the solver never conflicts, and this test is about
     resume semantics, which needs the budget to actually bite. *)
  let cnf = [ [ 1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ]; [ -1; 2; -3 ] ] in
  let inst = P.Reductions.of_3sat ~nvars:3 cnf in
  let expected =
    P.Enumerate.to_list
      (P.Enumerate.create ~preprocess:false inst.P.Reductions.program
         inst.P.Reductions.database inst.P.Reductions.goal)
  in
  let e =
    P.Enumerate.create ~preprocess:false inst.P.Reductions.program
      inst.P.Reductions.database inst.P.Reductions.goal
  in
  let gave_ups = ref 0 in
  let members = ref [] in
  let rec drain () =
    match P.Enumerate.next_limited ~conflict_budget:1 e with
    | `Gave_up ->
      incr gave_ups;
      drain ()
    | `Member m ->
      members := m :: !members;
      drain ()
    | `Exhausted -> ()
  in
  drain ();
  let got = List.rev !members in
  Alcotest.(check bool) "budget actually bit" true (!gave_ups > 0);
  Alcotest.(check int) "same count as unbudgeted" (List.length expected)
    (List.length got);
  Alcotest.(check bool) "same members in same order" true
    (List.for_all2 D.Fact.Set.equal expected got)

(* --- Budget path ------------------------------------------------------------ *)

let test_batch_budget_exhausted () =
  (* The same conflicting 3SAT reduction through Batch.run: a 1-conflict
     budget must stop each tuple with Budget_exhausted, keeping the
     members found so far — a prefix of the unbudgeted sequential
     order — and the worker count must not change any of it. The goal
     is listed twice so that ~jobs:2 really runs two workers. *)
  let cnf = [ [ 1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ]; [ -1; 2; -3 ] ] in
  let inst = P.Reductions.of_3sat ~nvars:3 cnf in
  let program = inst.P.Reductions.program in
  let db = inst.P.Reductions.database in
  let goal = inst.P.Reductions.goal in
  let sequential =
    P.Enumerate.to_list (P.Enumerate.create ~preprocess:false program db goal)
  in
  let rec is_prefix prefix full =
    match (prefix, full) with
    | [], _ -> true
    | p :: ps, f :: fs -> D.Fact.Set.equal p f && is_prefix ps fs
    | _ :: _, [] -> false
  in
  let run jobs =
    P.Batch.run ~jobs ~conflict_budget:1 ~preprocess:false program db
      (P.Batch.Facts [ goal; goal ])
  in
  let one = run 1 and two = run 2 in
  Alcotest.(check int) "two workers used" 2 two.P.Batch.jobs;
  List.iter
    (fun (r : P.Batch.result) ->
      Alcotest.(check bool) "status is Budget_exhausted" true
        (r.P.Batch.status = P.Batch.Budget_exhausted);
      Alcotest.(check bool) "members are a sequential prefix" true
        (is_prefix r.P.Batch.members sequential))
    (one.P.Batch.results @ two.P.Batch.results);
  List.iter2
    (fun (a : P.Batch.result) (b : P.Batch.result) ->
      Alcotest.(check bool) "jobs 1 = jobs 2" true
        (D.Fact.equal a.P.Batch.fact b.P.Batch.fact
        && a.P.Batch.status = b.P.Batch.status
        && List.equal D.Fact.Set.equal a.P.Batch.members b.P.Batch.members))
    one.P.Batch.results two.P.Batch.results

(* --- Shared instance cache ----------------------------------------------- *)

(* The numbering contract of [Closure] (closure.mli, "Node numbering
   and iteration order"): nodes sorted with [node_id nodes.(i) = i];
   hyperedges iterated head by head in ascending id, each carrying its
   head's id and the ids of its sorted, deduplicated body; the O(1)
   counts and the db ids agree with what iteration yields. *)
let closure_numbering_ok c =
  let nodes = P.Closure.nodes c in
  let n = Array.length nodes in
  let ok = ref (n = P.Closure.num_nodes c) in
  Array.iteri
    (fun i f ->
      if P.Closure.node_id c f <> i then ok := false;
      if i > 0 && D.Fact.compare nodes.(i - 1) f >= 0 then ok := false)
    nodes;
  let last_head = ref (-1) and count = ref 0 in
  P.Closure.iter_hyperedges c (fun (e : P.Closure.hyperedge) ->
      incr count;
      if e.P.Closure.head_id < !last_head then ok := false;
      last_head := e.P.Closure.head_id;
      if not (D.Fact.equal nodes.(e.P.Closure.head_id) e.P.Closure.head) then
        ok := false;
      let targets = List.sort_uniq D.Fact.compare e.P.Closure.body in
      if not (List.equal D.Fact.equal targets e.P.Closure.targets) then ok := false;
      if Array.to_list e.P.Closure.target_ids <> List.map (P.Closure.node_id c) targets
      then ok := false);
  !ok
  && !count = P.Closure.num_hyperedges c
  && List.map (P.Closure.node_id c) (P.Closure.db_facts c)
     = Array.to_list (P.Closure.db_ids c)

(* Everything observable about a closure, hyperedges in iteration order,
   so two builds compare equal only if they iterate identically. *)
let closure_fingerprint c =
  let edges = ref [] in
  P.Closure.iter_hyperedges c (fun (e : P.Closure.hyperedge) ->
      edges :=
        ( e.P.Closure.head_id,
          e.P.Closure.head,
          Format.asprintf "%a" D.Rule.pp e.P.Closure.rule,
          e.P.Closure.body,
          e.P.Closure.target_ids )
        :: !edges);
  ( P.Closure.root c,
    P.Closure.nodes c,
    P.Closure.db_facts c,
    List.rev !edges )

let test_cached_closure_equals_standalone () =
  List.iter
    (fun edges ->
      let db = edge_db edges in
      let model = D.Eval.seminaive tc_program db in
      let cache = P.Closure.instance_cache tc_program ~model in
      D.Database.iter_pred model (D.Symbol.intern "tc") (fun goal ->
          let standalone = P.Closure.build tc_program db goal in
          let cached = P.Closure.build_cached cache db goal in
          let name = D.Fact.to_string goal in
          Alcotest.(check bool) (name ^ " numbered") true
            (closure_numbering_ok standalone && closure_numbering_ok cached);
          Alcotest.(check bool) (name ^ " identical") true
            (closure_fingerprint standalone = closure_fingerprint cached));
      Alcotest.(check bool) "cache was shared across tuples" true
        (P.Closure.cache_hits cache > 0))
    [
      [ ("b0", "b1"); ("b1", "b2"); ("b2", "b3"); ("b0", "b2") ];
      (* cyclic, with heads of several instances and self-loops *)
      [ ("c3", "c0"); ("c0", "c1"); ("c1", "c2"); ("c2", "c0"); ("c1", "c3");
        ("c2", "c2"); ("c0", "c3") ];
    ]

(* --- Statuses, ranks, ordering ------------------------------------------- *)

let test_batch_statuses () =
  let db = edge_db [ ("b0", "b1"); ("b1", "b2"); ("b0", "b2") ] in
  let derivable = fact "tc" [ "b0"; "b2" ] in
  let missing = fact "tc" [ "b2"; "b0" ] in
  let outcome =
    P.Batch.run tc_program db (P.Batch.Facts [ derivable; missing ])
  in
  (match outcome.P.Batch.results with
  | [ ok; bad ] ->
    Alcotest.(check bool) "derivable complete" true
      (ok.P.Batch.status = P.Batch.Complete);
    Alcotest.(check int) "two members" 2 (List.length ok.P.Batch.members);
    Alcotest.(check bool) "rank recorded" true (ok.P.Batch.rank = Some 1);
    Alcotest.(check bool) "missing flagged" true
      (bad.P.Batch.status = P.Batch.Not_derivable);
    Alcotest.(check bool) "missing has no members" true
      (bad.P.Batch.members = [] && bad.P.Batch.rank = None)
  | rs -> Alcotest.failf "expected 2 results, got %d" (List.length rs));
  let limited =
    P.Batch.run ~limit:1 tc_program db (P.Batch.Facts [ derivable ])
  in
  match limited.P.Batch.results with
  | [ r ] ->
    Alcotest.(check bool) "limit reached" true
      (r.P.Batch.status = P.Batch.Limit_reached);
    Alcotest.(check int) "one member kept" 1 (List.length r.P.Batch.members)
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

let test_all_answers_sorted () =
  let db = edge_db [ ("b2", "b3"); ("b0", "b1"); ("b1", "b2") ] in
  let outcome =
    P.Batch.run ~jobs:3 tc_program db (P.Batch.All_answers (D.Symbol.intern "tc"))
  in
  let facts = List.map (fun (r : P.Batch.result) -> r.P.Batch.fact) outcome.P.Batch.results in
  Alcotest.(check bool) "results in sorted tuple order" true
    (facts = List.sort D.Fact.compare facts);
  Alcotest.(check bool) "all answers present" true (List.length facts = 6);
  Alcotest.(check bool) "workers capped by tuples" true (outcome.P.Batch.jobs = 3)

let suite =
  let tc = Alcotest.test_case in
  ( "batch",
    List.map QCheck_alcotest.to_alcotest
      [
        prop_batch_equals_sequential;
        prop_batch_equals_sequential_nonlinear;
        prop_batch_matches_powerset_oracle;
      ]
    @ [
        tc "terminal unsat certified" `Quick test_batch_terminal_unsat_certified;
        tc "next_limited resume" `Quick test_next_limited_resume;
        tc "budget exhausted = sequential prefix" `Quick
          test_batch_budget_exhausted;
        tc "cached closure = standalone" `Quick test_cached_closure_equals_standalone;
        tc "statuses and ranks" `Quick test_batch_statuses;
        tc "all-answers ordering" `Quick test_all_answers_sorted;
      ] )
