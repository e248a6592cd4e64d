(* Tests for the Datalog substrate: parser, classification, evaluation
   semi-naive evaluation, derivations, ranks. *)

module D = Datalog

let fact = Alcotest.testable D.Fact.pp D.Fact.equal

let tc_program = {|
  % transitive closure
  path(X,Y) :- edge(X,Y).
  path(X,Z) :- path(X,Y), edge(Y,Z).
|}

let parse_program src = fst (D.Parser.program_of_string src)

let facts_of_strings l =
  List.map (fun (p, args) -> D.Fact.of_strings p args) l

(* --- Parser ----------------------------------------------------------- *)

let test_parse_basic () =
  let clauses = D.Parser.parse_string {|
    edge(a,b). edge(b,c).
    path(X,Y) :- edge(X,Y).
  |} in
  let rules, facts = D.Parser.split clauses in
  Alcotest.(check int) "rules" 1 (List.length rules);
  Alcotest.(check int) "facts" 2 (List.length facts);
  Alcotest.check fact "first fact" (D.Fact.of_strings "edge" [ "a"; "b" ])
    (List.hd facts)

let test_parse_comments_and_quotes () =
  let clauses =
    D.Parser.parse_string
      "% leading comment\nname('Alice Smith', 42). % trailing\n"
  in
  match clauses with
  | [ D.Parser.Clause_fact f ] ->
    Alcotest.check fact "quoted" (D.Fact.of_strings "name" [ "Alice Smith"; "42" ]) f
  | _ -> Alcotest.fail "expected one fact"

let test_parse_zero_arity () =
  match D.Parser.parse_string "ok. bad :- nope." with
  | [ D.Parser.Clause_fact f; D.Parser.Clause_rule r ] ->
    Alcotest.(check string) "prop fact" "ok" (D.Fact.to_string f);
    Alcotest.(check string) "prop rule" "bad :- nope." (D.Rule.to_string r)
  | _ -> Alcotest.fail "expected fact + rule"

let test_parse_errors () =
  let expect_error src =
    match D.Parser.parse_string src with
    | exception D.Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected syntax error on %S" src
  in
  expect_error "p(X).";            (* non-ground fact *)
  expect_error "p(a) :- .";
  expect_error "p(a)";             (* missing dot *)
  expect_error "p(X) :- q(Y).";    (* unsafe rule *)
  expect_error ":- q(a).";
  expect_error "p(a,).";
  expect_error "p : q."

(* Parse errors must point at the offending token (file:line:col), not
   at wherever the lexer happened to stop — the analyzer's WP000
   diagnostics reuse these positions verbatim. *)
let test_parse_error_positions () =
  let expect_pos src ~line ~col ~substring =
    match D.Parser.parse_string ~file:"t.dl" src with
    | exception D.Parser.Error (pos, msg) ->
      Alcotest.(check string)
        (Printf.sprintf "%S file" src)
        "t.dl" pos.D.Pos.file;
      Alcotest.(check int) (Printf.sprintf "%S line" src) line pos.D.Pos.line;
      Alcotest.(check int) (Printf.sprintf "%S col" src) col pos.D.Pos.col;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      if not (contains msg substring) then
        Alcotest.failf "%S: message %S lacks %S" src msg substring
    | _ -> Alcotest.failf "expected syntax error on %S" src
  in
  (* unterminated atoms: input ends mid-argument-list *)
  expect_pos "tc(a" ~line:1 ~col:5 ~substring:"unterminated atom";
  expect_pos "tc(" ~line:1 ~col:4 ~substring:"unterminated atom";
  expect_pos "tc(a,b) :- edge(a,b)" ~line:1 ~col:21 ~substring:"end of input";
  (* unterminated quoted constant: points at the opening quote *)
  expect_pos "tc('abc)." ~line:1 ~col:4 ~substring:"unterminated quoted";
  (* stray tokens, with the error on the right line *)
  expect_pos "tc(a,b).\nedge(X Y)." ~line:2 ~col:8 ~substring:"expected ',' or ')'";
  expect_pos "tc(a,b) tc(b,c)." ~line:1 ~col:9 ~substring:"expected '.' or ':-'";
  expect_pos "tc(a,b). @" ~line:1 ~col:10 ~substring:"unexpected character"

(* The raw level: ground facts land in one block per (predicate, arity),
   blocks in order of first occurrence, rows in file order with their
   positions; rules and non-ground bodyless clauses stay clauses. The
   validating level gives the clauses back in file order. *)
let test_parse_raw_blocks () =
  let src = "e(a,b).\nr(X) :- e(X,Y).\n  e(b,c). e(a). n(_).\ne(c,d)." in
  let raw = D.Parser.parse_raw ~file:"b.dl" src in
  let rows (b : D.Parser.block) =
    List.init b.D.Parser.length (fun i ->
        ( D.Fact.to_string (D.Parser.row_fact b i),
          D.Pos.to_string (D.Parser.row_pos raw b i) ))
  in
  Alcotest.(check (list (list (pair string string))))
    "blocks"
    [
      [ ("e(a,b)", "b.dl:1:1"); ("e(b,c)", "b.dl:3:3"); ("e(c,d)", "b.dl:4:1") ];
      [ ("e(a)", "b.dl:3:11") ];
    ]
    (List.map rows raw.D.Parser.blocks);
  Alcotest.(check (list string)) "clauses" [ "b.dl:2:1"; "b.dl:3:17" ]
    (List.map
       (fun (c : D.Parser.raw_clause) -> D.Pos.to_string c.D.Parser.raw_pos)
       raw.D.Parser.clauses);
  Alcotest.(check (list string)) "facts: block by block"
    [ "e(a,b)"; "e(b,c)"; "e(c,d)"; "e(a)" ]
    (List.map D.Fact.to_string (D.Parser.facts raw));
  Alcotest.(check (list string)) "parse_string: file order"
    [ "e(a,b)"; "r(X) :- e(X,Y)."; "e(b,c)"; "e(a)"; "e(c,d)" ]
    (List.map
       (function
         | D.Parser.Clause_fact f -> D.Fact.to_string f
         | D.Parser.Clause_rule r -> D.Rule.to_string r)
       (D.Parser.parse_string ("e(a,b).\nr(X) :- e(X,Y).\n  e(b,c). e(a).\ne(c,d).")))

(* An atom's arguments are interned left to right, then its predicate:
   Symbol.compare orders by interning time, so this is observable. *)
let test_parse_interning_order () =
  let base = D.Symbol.count () in
  ignore (D.Parser.parse_raw "ppzq1(aazq1,bbzq1). rrzq1 :- sszq1(Xzq1, _).");
  Alcotest.(check (list string)) "interning order"
    [ "aazq1"; "bbzq1"; "ppzq1"; "rrzq1"; "Xzq1"; Printf.sprintf "_#%d" (base + 5); "sszq1" ]
    (List.init (D.Symbol.count () - base) (fun k -> D.Symbol.name (base + k)));
  let sym = D.Symbol.intern_sub "xxppzq1yy" 2 5 in
  Alcotest.(check int) "intern_sub finds the slice" (D.Symbol.intern "ppzq1") sym;
  Alcotest.(check int) "intern_sub of a whole string" sym (D.Symbol.intern_sub "ppzq1" 0 5)

let test_parse_roundtrip_pp () =
  let program = parse_program tc_program in
  let printed = Format.asprintf "%a" D.Program.pp program in
  let reparsed = parse_program printed in
  Alcotest.(check int) "same rule count"
    (List.length (D.Program.rules program))
    (List.length (D.Program.rules reparsed));
  List.iter2
    (fun r1 r2 ->
      Alcotest.(check bool) "rule equal" true (D.Rule.equal r1 r2))
    (D.Program.rules program)
    (D.Program.rules reparsed)

(* --- Program classification ------------------------------------------ *)

let test_edb_idb () =
  let program = parse_program tc_program in
  Alcotest.(check (list string)) "edb" [ "edge" ]
    (List.map D.Symbol.name (D.Program.edb program));
  Alcotest.(check (list string)) "idb" [ "path" ]
    (List.map D.Symbol.name (D.Program.idb program))

let test_classification () =
  let check src linear recursive =
    let program = parse_program src in
    Alcotest.(check bool) "linear" linear (D.Program.is_linear program);
    Alcotest.(check bool) "recursive" recursive (D.Program.is_recursive program)
  in
  (* transitive closure: linear, recursive *)
  check tc_program true true;
  (* path accessibility (paper Example 1): non-linear, recursive *)
  check {|
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y,Z,X).
  |} false true;
  (* projection chain: linear, non-recursive *)
  check {|
    q(X) :- r(X,Y).
    s(X) :- q(X), u(X).
  |} true false;
  (* non-linear non-recursive *)
  check {|
    q(X,Z) :- r(X,Y), r(Y,Z).
    s(X) :- q(X,Y), q(Y,X).
  |} false false

let test_query_class_strings () =
  Alcotest.(check string) "tc class" "linear, recursive"
    (D.Program.query_class (parse_program tc_program))

let test_arity_mismatch_rejected () =
  match parse_program "p(X) :- e(X,Y).\np(X,Y) :- e(X,Y)." with
  | exception Invalid_argument _ -> ()
  | exception D.Parser.Error _ -> ()
  | _ -> Alcotest.fail "arity mismatch must be rejected"

(* --- Evaluation -------------------------------------------------------- *)

let chain_db n =
  (* edge(c0,c1), ..., edge(c_{n-1}, c_n) *)
  List.init n (fun i ->
      D.Fact.of_strings "edge"
        [ Printf.sprintf "c%d" i; Printf.sprintf "c%d" (i + 1) ])

let test_transitive_closure_eval () =
  let program = parse_program tc_program in
  let db = D.Database.of_list (chain_db 5) in
  let model = D.Eval.seminaive program db in
  (* 5 edges + 15 paths *)
  Alcotest.(check int) "model size" 20 (D.Database.size model);
  Alcotest.(check bool) "path(c0,c5)" true
    (D.Database.mem model (D.Fact.of_strings "path" [ "c0"; "c5" ]));
  Alcotest.(check bool) "no path(c5,c0)" false
    (D.Database.mem model (D.Fact.of_strings "path" [ "c5"; "c0" ]))

let random_graph_db rng ~nodes ~edges =
  List.init edges (fun _ ->
      let a = Util.Rng.int rng nodes and b = Util.Rng.int rng nodes in
      D.Fact.of_strings "edge"
        [ Printf.sprintf "n%d" a; Printf.sprintf "n%d" b ])

let test_nonlinear_eval () =
  (* Paper Example 1: path accessibility. *)
  let program = parse_program {|
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y,Z,X).
  |} in
  let db =
    D.Database.of_list
      (facts_of_strings
         [ ("s", [ "a" ]); ("t", [ "a"; "a"; "b" ]); ("t", [ "a"; "a"; "c" ]);
           ("t", [ "a"; "a"; "d" ]); ("t", [ "b"; "c"; "a" ]) ])
  in
  let answers = D.Eval.answers program (D.Symbol.intern "a") db in
  Alcotest.(check (list string)) "accessible"
    [ "a(a)"; "a(b)"; "a(c)"; "a(d)" ]
    (List.map D.Fact.to_string answers)

let test_constants_in_rules () =
  let program = parse_program "special(X) :- edge(a,X)." in
  let db = D.Database.of_list (facts_of_strings
    [ ("edge", ["a"; "b"]); ("edge", ["b"; "c"]); ("edge", ["a"; "c"]) ]) in
  let answers = D.Eval.answers program (D.Symbol.intern "special") db in
  Alcotest.(check (list string)) "from a" [ "special(b)"; "special(c)" ]
    (List.map D.Fact.to_string answers)

let test_repeated_vars_in_atom () =
  let program = parse_program "loop(X) :- edge(X,X)." in
  let db = D.Database.of_list (facts_of_strings
    [ ("edge", ["a"; "b"]); ("edge", ["b"; "b"]) ]) in
  let answers = D.Eval.answers program (D.Symbol.intern "loop") db in
  Alcotest.(check (list string)) "self loops" [ "loop(b)" ]
    (List.map D.Fact.to_string answers)

let test_empty_database () =
  let program = parse_program tc_program in
  let model = D.Eval.seminaive program (D.Database.create ()) in
  Alcotest.(check int) "empty model" 0 (D.Database.size model)

let test_holds () =
  let program = parse_program tc_program in
  let db = D.Database.of_list (chain_db 3) in
  Alcotest.(check bool) "holds" true
    (D.Eval.holds program db (D.Fact.of_strings "path" [ "c0"; "c3" ]));
  Alcotest.(check bool) "not holds" false
    (D.Eval.holds program db (D.Fact.of_strings "path" [ "c3"; "c0" ]))

(* --- Derivations ------------------------------------------------------- *)

let test_derivations () =
  let program = parse_program tc_program in
  let db = D.Database.of_list (chain_db 3) in
  let model = D.Eval.seminaive program db in
  (* path(c0,c2) has exactly one derivation:
     path(c0,c2) :- path(c0,c1), edge(c1,c2). *)
  let ds = D.Eval.derivations program model (D.Fact.of_strings "path" [ "c0"; "c2" ]) in
  Alcotest.(check int) "one derivation" 1 (List.length ds);
  let _, body = List.hd ds in
  Alcotest.(check (list string)) "body"
    [ "path(c0,c1)"; "edge(c1,c2)" ]
    (List.map D.Fact.to_string body);
  (* edge facts have no derivations (they are extensional). *)
  let ds = D.Eval.derivations program model (D.Fact.of_strings "edge" [ "c0"; "c1" ]) in
  Alcotest.(check int) "edb underivable" 0 (List.length ds)

let test_derivations_multiple () =
  let program = parse_program tc_program in
  (* Diamond: two ways to reach d from a. *)
  let db = D.Database.of_list (facts_of_strings
    [ ("edge", ["a"; "b"]); ("edge", ["a"; "c"]);
      ("edge", ["b"; "d"]); ("edge", ["c"; "d"]) ]) in
  let model = D.Eval.seminaive program db in
  let ds = D.Eval.derivations program model (D.Fact.of_strings "path" [ "a"; "d" ]) in
  Alcotest.(check int) "two derivations" 2 (List.length ds)

(* --- Ranks ------------------------------------------------------------- *)

let test_ranks_chain () =
  let program = parse_program tc_program in
  let db = D.Database.of_list (chain_db 4) in
  let ranks = D.Fact.Table.create 64 in
  let _model = D.Eval.seminaive ~ranks program db in
  let rank_of p args = D.Fact.Table.find ranks (D.Fact.of_strings p args) in
  Alcotest.(check int) "edb rank" 0 (rank_of "edge" [ "c0"; "c1" ]);
  Alcotest.(check int) "1-step" 1 (rank_of "path" [ "c0"; "c1" ]);
  Alcotest.(check int) "2-step" 2 (rank_of "path" [ "c0"; "c2" ]);
  Alcotest.(check int) "4-step" 4 (rank_of "path" [ "c0"; "c4" ])

let test_ranks_are_minimal () =
  (* rank = min over rule instances of 1 + max body rank (Prop. 28). *)
  let rng = Util.Rng.create 17 in
  let program = parse_program tc_program in
  for _ = 1 to 20 do
    let db =
      D.Database.of_list
        (random_graph_db rng ~nodes:(2 + Util.Rng.int rng 6)
           ~edges:(Util.Rng.int rng 15))
    in
    let ranks = D.Fact.Table.create 64 in
    let model = D.Eval.seminaive ~ranks program db in
    D.Database.iter
      (fun f ->
        let r = D.Fact.Table.find ranks f in
        if D.Database.mem db f then Alcotest.(check int) "edb 0" 0 r
        else begin
          let ds = D.Eval.derivations program model f in
          let best =
            List.fold_left
              (fun acc (_, body) ->
                let cost =
                  1 + List.fold_left (fun m b -> max m (D.Fact.Table.find ranks b)) 0 body
                in
                min acc cost)
              max_int ds
          in
          Alcotest.(check int) "rank minimal" best r
        end)
      model
  done

let test_zero_arity_eval () =
  let program = parse_program "q :- p.\nr :- q, s." in
  let db = D.Database.of_list [ D.Fact.of_strings "p" []; D.Fact.of_strings "s" [] ] in
  let model = D.Eval.seminaive program db in
  Alcotest.(check bool) "q" true (D.Database.mem model (D.Fact.of_strings "q" []));
  Alcotest.(check bool) "r" true (D.Database.mem model (D.Fact.of_strings "r" []));
  (* And its provenance machinery works at arity 0. *)
  let family =
    Provenance.Enumerate.to_list
      (Provenance.Enumerate.create program db (D.Fact.of_strings "r" []))
  in
  Alcotest.(check int) "one member" 1 (List.length family)

let test_database_introspection () =
  let db = D.Database.of_list (chain_db 3) in
  Alcotest.(check (list string)) "preds" [ "edge" ]
    (List.map D.Symbol.name (D.Database.preds db));
  Alcotest.(check int) "count" 3 (D.Database.count_pred db (D.Symbol.intern "edge"));
  Alcotest.(check int) "domain size" 4 (List.length (D.Database.domain db));
  let copy = D.Database.copy db in
  ignore (D.Database.add copy (D.Fact.of_strings "edge" [ "x"; "y" ]));
  Alcotest.(check int) "copy independent" 3 (D.Database.size db);
  Alcotest.(check bool) "add dedup" false
    (D.Database.add copy (D.Fact.of_strings "edge" [ "x"; "y" ]))

(* A database is one flat relation per (predicate, arity): two arities
   of one predicate coexist, index probes keep insertion order, and
   copies share no rows with the original. *)
let test_database_relations () =
  let f = D.Fact.of_strings in
  let strings l = List.map D.Fact.to_string l in
  let facts_of db p =
    let acc = ref [] in
    D.Database.iter_pred db (D.Symbol.intern p) (fun x -> acc := x :: !acc);
    strings (List.rev !acc)
  in
  let db = D.Database.of_list [ f "p" [ "a" ]; f "p" [ "a"; "b" ]; f "p" [ "b" ] ] in
  Alcotest.(check bool) "p(a,b)" true (D.Database.mem db (f "p" [ "a"; "b" ]));
  Alcotest.(check bool) "p(b,a) absent" false (D.Database.mem db (f "p" [ "b"; "a" ]));
  Alcotest.(check bool) "p(a,b,c) absent" false
    (D.Database.mem db (f "p" [ "a"; "b"; "c" ]));
  Alcotest.(check int) "size" 3 (D.Database.size db);
  Alcotest.(check int) "count_pred" 3 (D.Database.count_pred db (D.Symbol.intern "p"));
  Alcotest.(check (list string)) "iter_pred: arities in order"
    [ "p(a)"; "p(b)"; "p(a,b)" ] (facts_of db "p");
  let edges =
    [ f "e" [ "a"; "c" ]; f "e" [ "b"; "c" ]; f "e" [ "a"; "d" ]; f "e" [ "d"; "c" ] ]
  in
  let db = D.Database.of_list edges in
  let matching ?(arity = 2) db bound =
    let acc = ref [] in
    D.Database.iter_matching db (D.Symbol.intern "e") ~arity
      (List.map (fun (i, c) -> (i, D.Symbol.intern c)) bound)
      (fun x -> acc := x :: !acc);
    strings (List.rev !acc)
  in
  Alcotest.(check (list string)) "matches in insertion order"
    [ "e(a,c)"; "e(b,c)"; "e(d,c)" ] (matching db [ (1, "c") ]);
  Alcotest.(check (list string)) "two bound positions" [ "e(a,d)" ]
    (matching db [ (1, "d"); (0, "a") ]);
  Alcotest.(check (list string)) "other arity" [] (matching ~arity:1 db []);
  let copy = D.Database.copy db in
  Alcotest.(check (list string)) "copy keeps the rows' order"
    (facts_of db "e") (facts_of copy "e");
  Alcotest.(check (list string)) "no match yet" [] (matching copy [ (1, "a") ]);
  Alcotest.(check bool) "add to copy" true (D.Database.add copy (f "e" [ "c"; "a" ]));
  Alcotest.(check (list string)) "copy index sees the add" [ "e(c,a)" ]
    (matching copy [ (1, "a") ]);
  Alcotest.(check (list string)) "original unchanged" (strings edges) (facts_of db "e");
  Alcotest.(check bool) "not in original" false (D.Database.mem db (f "e" [ "c"; "a" ]));
  Alcotest.(check (list string)) "original index unchanged" [] (matching db [ (1, "a") ])

let test_check_database () =
  let program = parse_program tc_program in
  let good = D.Fact.Set.of_list (chain_db 2) in
  Alcotest.(check bool) "good db" true (D.Program.check_database program good = Ok ());
  let idb_fact = D.Fact.Set.singleton (D.Fact.of_strings "path" [ "a"; "b" ]) in
  Alcotest.(check bool) "idb fact rejected" true
    (D.Program.check_database program idb_fact <> Ok ());
  let bad_arity = D.Fact.Set.singleton (D.Fact.of_strings "edge" [ "a" ]) in
  Alcotest.(check bool) "arity rejected" true
    (D.Program.check_database program bad_arity <> Ok ())

let test_parse_file () =
  let path = Filename.temp_file "whyprov" ".dl" in
  let oc = open_out path in
  output_string oc "p(X) :- e(X,Y).\ne(a,b).\n";
  close_out oc;
  let rules, facts = D.Parser.split (D.Parser.parse_file path) in
  Sys.remove path;
  Alcotest.(check int) "rules" 1 (List.length rules);
  Alcotest.(check int) "facts" 1 (List.length facts)

let suite =
  let tc = Alcotest.test_case in
  ( "datalog",
    [
      tc "parse basic" `Quick test_parse_basic;
      tc "parse comments/quotes" `Quick test_parse_comments_and_quotes;
      tc "parse zero arity" `Quick test_parse_zero_arity;
      tc "parse errors" `Quick test_parse_errors;
      tc "parse error positions" `Quick test_parse_error_positions;
      tc "parse raw blocks" `Quick test_parse_raw_blocks;
      tc "parse interning order" `Quick test_parse_interning_order;
      tc "parse pp roundtrip" `Quick test_parse_roundtrip_pp;
      tc "edb/idb split" `Quick test_edb_idb;
      tc "classification" `Quick test_classification;
      tc "query class strings" `Quick test_query_class_strings;
      tc "arity mismatch" `Quick test_arity_mismatch_rejected;
      tc "transitive closure" `Quick test_transitive_closure_eval;
      tc "non-linear eval" `Quick test_nonlinear_eval;
      tc "constants in rules" `Quick test_constants_in_rules;
      tc "repeated vars" `Quick test_repeated_vars_in_atom;
      tc "empty database" `Quick test_empty_database;
      tc "holds" `Quick test_holds;
      tc "derivations" `Quick test_derivations;
      tc "derivations multiple" `Quick test_derivations_multiple;
      tc "ranks chain" `Quick test_ranks_chain;
      tc "ranks minimal" `Quick test_ranks_are_minimal;
      tc "zero-arity predicates" `Quick test_zero_arity_eval;
      tc "database introspection" `Quick test_database_introspection;
      tc "database relations" `Quick test_database_relations;
      tc "check_database" `Quick test_check_database;
      tc "parse file" `Quick test_parse_file;
    ] )
