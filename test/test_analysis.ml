(* Tests for the static analyzer (lib/analysis): diagnostic codes, the
   classifier lattice, analysis-driven encoding selection, and the
   differential guarantees the selection layer rests on — dropping the
   acyclicity clauses must never change the enumerated why-provenance —
   plus differentials of the paper's FO rewriting (whole program or the
   query's cone) against the SAT-backed membership procedures. *)

module D = Datalog
module P = Provenance
module W = Workloads
module A = Whyprov_analysis

let parse_program src = fst (D.Parser.program_of_string src)

let codes (r : A.Check.result) =
  List.map (fun (d : A.Diagnostic.t) -> d.A.Diagnostic.code) r.A.Check.diagnostics

let has_code r code = List.mem code (codes r)

let check ?query src = A.Check.check_string ?query ~file:"t.dl" src

(* --- Diagnostic codes --------------------------------------------------- *)

let test_error_codes () =
  let expect_error src code =
    let r = check src in
    Alcotest.(check bool) (code ^ " fires") true (has_code r code);
    Alcotest.(check bool) (code ^ " is an error") true (r.A.Check.errors > 0);
    Alcotest.(check bool) (code ^ " blocks the program") true
      (r.A.Check.program = None);
    Alcotest.(check bool) (code ^ " fails ok") false (A.Check.ok r)
  in
  expect_error "tc(a" "WP000";
  expect_error "p(X,Z) :- e(X,Y). e(a,b)." "WP001";
  expect_error "e(X,b). p(X) :- e(X,Y)." "WP002";
  expect_error "p(X) :- e(X,Y). e(a,b,c)." "WP003";
  expect_error "p(X) :- e(X,Y). p(a)." "WP004";
  let r = check ~query:"nosuch" "p(X) :- e(X,Y). e(a,b)." in
  Alcotest.(check bool) "WP005 fires" true (has_code r "WP005")

let test_warning_codes () =
  let expect_warning ?query src code =
    let r = check ?query src in
    Alcotest.(check bool) (code ^ " fires") true (has_code r code);
    Alcotest.(check int) (code ^ " no errors") 0 r.A.Check.errors;
    Alcotest.(check bool) (code ^ " ok but not clean") true
      (A.Check.ok r && not (A.Check.clean r))
  in
  expect_warning ~query:"p"
    "p(X) :- e(X). q(X) :- e(X). e(a). unused(b)." "WP101";
  expect_warning ~query:"p" "p(X) :- e(X), f(X). e(a)." "WP102";
  expect_warning ~query:"p" "p(X) :- e(X). q(X) :- e(X). e(a)." "WP103";
  expect_warning ~query:"p" "p(X) :- e(X). p(Y) :- e(Y). e(a)." "WP104";
  expect_warning ~query:"p" "p(X) :- e(X). p(X) :- e(X), f(X). e(a). f(a)."
    "WP105";
  expect_warning ~query:"p" "p(X,Y) :- e(X), f(Y). e(a). f(b)." "WP106";
  expect_warning ~query:"p" "p(X) :- e(X,Y). e(a,b)." "WP107"

let test_info_recursive_scc () =
  let r = check ~query:"tc" "tc(X,Y) :- e(X,Y). tc(X,Z) :- tc(X,Y), e(Y,Z). e(a,b)." in
  Alcotest.(check bool) "WP201 fires" true (has_code r "WP201");
  Alcotest.(check int) "info counted" 1 r.A.Check.infos;
  (* informational only: still clean *)
  Alcotest.(check bool) "clean despite info" true (A.Check.clean r)

let test_underscore_exempt () =
  (* '_'-prefixed and anonymous variables never trigger WP107 *)
  let r = check ~query:"p" "p(X) :- e(X,_), f(X,_Y). e(a,b). f(a,c)." in
  Alcotest.(check bool) "no WP107" false (has_code r "WP107");
  Alcotest.(check bool) "clean" true (A.Check.clean r)

let test_diagnostics_sorted_and_positioned () =
  let r = check ~query:"p" "p(X) :- e(X).\nq(X) :- e(X).\nr(X) :- e(X).\ne(a)." in
  let positions =
    List.filter_map
      (fun (d : A.Diagnostic.t) ->
        if D.Pos.is_none d.A.Diagnostic.pos then None
        else Some (d.A.Diagnostic.pos.D.Pos.line, d.A.Diagnostic.pos.D.Pos.col))
      r.A.Check.diagnostics
  in
  let sorted = List.sort compare positions in
  Alcotest.(check bool) "sorted by position" true (positions = sorted);
  Alcotest.(check bool) "has positioned diagnostics" true (positions <> [])

let test_check_program_entry () =
  (* check_program: stage-2 only, for programs built in code *)
  let program = parse_program "p(X) :- e(X). q(X) :- e(X)." in
  let r = A.Check.check_program ~query:"p" program in
  Alcotest.(check int) "no errors" 0 r.A.Check.errors;
  Alcotest.(check bool) "WP103 from stage 2" true (has_code r "WP103");
  let r = A.Check.check_program ~query:"e" program in
  Alcotest.(check bool) "WP005 on edb query" true (has_code r "WP005")

(* --- Rule.make_checked -------------------------------------------------- *)

let test_make_checked () =
  let atom name args =
    D.Atom.make (D.Symbol.intern name)
      (Array.of_list (List.map (fun v -> D.Term.var v) args))
  in
  (match D.Rule.make_checked (atom "p" [ "X" ]) [ atom "e" [ "X" ] ] with
  | Ok rule ->
    Alcotest.(check string) "rule prints" "p(X) :- e(X)."
      (D.Rule.to_string rule)
  | Error msg -> Alcotest.failf "safe rule rejected: %s" msg);
  (match D.Rule.make_checked (atom "p" [ "X"; "Z" ]) [ atom "e" [ "X" ] ] with
  | Ok _ -> Alcotest.fail "unsafe rule accepted"
  | Error msg ->
    Alcotest.(check bool) "mentions the variable" true
      (String.length msg > 0));
  match D.Rule.make_checked (atom "p" [ "X" ]) [] with
  | Ok _ -> Alcotest.fail "bodyless non-ground clause accepted"
  | Error _ -> ()

(* --- Classifier lattice ------------------------------------------------- *)

let test_classifier_lattice () =
  let cls src = (A.Classify.classify (parse_program src)).A.Classify.cls in
  Alcotest.(check string) "NRDat" "NRDat"
    (A.Classify.cls_name (cls "p(X) :- e(X). q(X) :- p(X)."));
  Alcotest.(check string) "LDat" "LDat"
    (A.Classify.cls_name
       (cls "tc(X,Y) :- e(X,Y). tc(X,Z) :- tc(X,Y), e(Y,Z)."));
  (* piecewise-linear but not linear: r joins two independently linear
     recursive predicates, using no atom of its own SCC *)
  let pwl =
    cls
      "p(X) :- e(X). p(X) :- p(Y), f(Y,X). q(X) :- g(X). q(X) :- q(Y), f(Y,X). r(X,Y) :- p(X), q(Y)."
  in
  Alcotest.(check string) "PwlDat" "PwlDat" (A.Classify.cls_name pwl);
  Alcotest.(check string) "Dat" "Dat"
    (A.Classify.cls_name
       (cls "a(X) :- s(X). a(X) :- a(Y), a(Z), t(Y,Z,X)."))

let test_classifier_structure () =
  let c =
    A.Classify.classify
      (parse_program
         "p(X) :- e(X). p(X) :- p(Y), f(Y,X). q(X) :- g(X). q(X) :- q(Y), f(Y,X). r(X,Y) :- p(X), q(Y).")
  in
  Alcotest.(check bool) "recursive" true c.A.Classify.recursive;
  Alcotest.(check bool) "not linear" false c.A.Classify.linear;
  Alcotest.(check bool) "piecewise-linear" true c.A.Classify.piecewise_linear;
  Alcotest.(check int) "strata" 2 c.A.Classify.strata;
  Alcotest.(check int) "recursive sccs" 2 c.A.Classify.recursive_sccs;
  (* dependencies before dependents *)
  let strata_order =
    List.map (fun (s : A.Classify.scc) -> s.A.Classify.stratum) c.A.Classify.sccs
  in
  Alcotest.(check bool) "sccs topologically sorted" true
    (strata_order = List.sort compare strata_order)

let test_cycle_witness () =
  let program =
    parse_program "p(X) :- q(X). q(X) :- p(X). p(X) :- e(X)."
  in
  let scc =
    [ D.Symbol.intern "p"; D.Symbol.intern "q" ]
  in
  match A.Classify.cycle_witness program scc with
  | Some (first :: _ as cycle) ->
    Alcotest.(check bool) "closes the loop" true
      (D.Symbol.equal first (List.nth cycle (List.length cycle - 1)));
    Alcotest.(check bool) "length > 1" true (List.length cycle > 1)
  | Some [] | None -> Alcotest.fail "expected a witness cycle"

let test_workload_classes () =
  let cls scenario =
    A.Classify.cls_name
      ((A.Classify.classify scenario.W.Scenario.program).A.Classify.cls)
  in
  Alcotest.(check string) "transclosure" "LDat" (cls (W.Transclosure.scenario ()));
  Alcotest.(check string) "csda" "LDat" (cls (W.Csda.scenario ()));
  List.iter
    (fun s -> Alcotest.(check string) (s.W.Scenario.name ^ " class") "NRDat" (cls s))
    (W.Doctors.scenarios ~scale:0.01 ())

(* --- Encoding selection ------------------------------------------------- *)

let test_selection () =
  let nonrec_program = parse_program "p(X) :- e(X), f(X). p(X) :- g(X)." in
  let plan = A.Selection.plan nonrec_program in
  Alcotest.(check bool) "non-recursive skips acyclicity" true
    plan.A.Selection.skip_acyclicity;
  (* memoized by physical identity *)
  Alcotest.(check bool) "plan memoized" true
    (A.Selection.plan nonrec_program == plan);
  let rec_program =
    parse_program "tc(X,Y) :- e(X,Y). tc(X,Z) :- tc(X,Y), e(Y,Z)."
  in
  Alcotest.(check bool) "recursive keeps acyclicity" false
    (A.Selection.skip_acyclicity rec_program);
  (* constants in a rule body do not block the skip *)
  let const_program = parse_program "p(X) :- e(X, a)." in
  Alcotest.(check bool) "constants: still skips" true
    (A.Selection.skip_acyclicity const_program)

(* --- Differential: encoding choice never changes why_UN ------------------ *)

let sorted_members l = List.sort D.Fact.Set.compare l

let members_with acyclicity program db goal =
  let e = P.Enumerate.create ?acyclicity program db goal in
  sorted_members (P.Enumerate.to_list e)

let check_encodings_agree name program db goal =
  let auto = members_with None program db goal in
  let ve = members_with (Some P.Encode.Vertex_elimination) program db goal in
  let tc = members_with (Some P.Encode.Transitive_closure) program db goal in
  Alcotest.(check int) (name ^ ": auto = VE count") (List.length ve)
    (List.length auto);
  Alcotest.(check bool) (name ^ ": auto = VE") true
    (List.for_all2 D.Fact.Set.equal auto ve);
  Alcotest.(check bool) (name ^ ": auto = TC") true
    (List.length auto = List.length tc
    && List.for_all2 D.Fact.Set.equal auto tc)

let test_differential_encodings () =
  (* Non-recursive: the auto path drops the acyclicity clauses. *)
  let program = parse_program "p(X) :- e(X,Y), f(Y). p(X) :- g(X)." in
  let db =
    D.Database.of_list
      (List.map
         (fun (p, args) -> D.Fact.of_strings p args)
         [ ("e", [ "a"; "b" ]); ("e", [ "a"; "c" ]); ("f", [ "b" ]);
           ("f", [ "c" ]); ("g", [ "a" ]) ])
  in
  check_encodings_agree "non-recursive" program db
    (D.Fact.of_strings "p" [ "a" ]);
  (* Recursive program on cyclic data: acyclicity clauses matter; the
     auto path must keep them and still agree. *)
  let tc_program =
    parse_program "tc(X,Y) :- e(X,Y). tc(X,Z) :- tc(X,Y), e(Y,Z)."
  in
  let cyc =
    D.Database.of_list
      (List.map
         (fun (x, y) -> D.Fact.of_strings "e" [ x; y ])
         [ ("a", "b"); ("b", "c"); ("c", "a"); ("a", "c") ])
  in
  check_encodings_agree "recursive cyclic" tc_program cyc
    (D.Fact.of_strings "tc" [ "a"; "a" ]);
  (* Dat-class program from the paper (Example 4). *)
  let acc = parse_program "a(X) :- s(X). a(X) :- a(Y), a(Z), t(Y,Z,X)." in
  let acc_db =
    D.Database.of_list
      (List.map
         (fun (p, args) -> D.Fact.of_strings p args)
         [ ("s", [ "a" ]); ("s", [ "b" ]); ("t", [ "a"; "a"; "c" ]);
           ("t", [ "b"; "b"; "c" ]); ("t", [ "c"; "c"; "d" ]) ])
  in
  check_encodings_agree "path-accessibility" acc acc_db
    (D.Fact.of_strings "a" [ "d" ])

let test_differential_encodings_workloads () =
  (* Doctors (non-recursive, real workload): every enumerated member of
     the auto (acyclicity-free) encoding agrees with both forced
     encodings; the enumeration is exhausted so the comparison is
     order-independent. *)
  List.iter
    (fun (s : W.Scenario.t) ->
      let db = W.Scenario.database s (fst (List.hd s.W.Scenario.databases)) in
      let answers = W.Scenario.pick_answers ~seed:11 s db 2 in
      List.iter
        (fun goal ->
          let limit = 60 in
          let take acyclicity =
            P.Enumerate.to_list ~limit
              (P.Enumerate.create ?acyclicity s.W.Scenario.program db goal)
          in
          let auto = take None in
          if List.length auto < limit then begin
            let auto = sorted_members auto in
            let ve =
              sorted_members (take (Some P.Encode.Vertex_elimination))
            in
            Alcotest.(check bool)
              (s.W.Scenario.name ^ ": auto = VE on workload") true
              (List.length auto = List.length ve
              && List.for_all2 D.Fact.Set.equal auto ve)
          end)
        answers)
    (W.Doctors.scenarios ~scale:0.01 ());
  (* Transclosure (linear recursive) on a small slice. *)
  let s = W.Transclosure.scenario ~scale:0.004 () in
  let db = W.Scenario.database s (fst (List.hd s.W.Scenario.databases)) in
  let answers = W.Scenario.pick_answers ~seed:3 s db 2 in
  List.iter
    (fun goal ->
      let take acyclicity =
        P.Enumerate.to_list ~limit:25
          (P.Enumerate.create ?acyclicity s.W.Scenario.program db goal)
      in
      let auto = take None in
      if List.length auto < 25 then
        let ve = sorted_members (take (Some P.Encode.Vertex_elimination)) in
        Alcotest.(check bool) "transclosure: auto = VE" true
          (List.length auto = List.length ve
          && List.for_all2 D.Fact.Set.equal (sorted_members auto) ve))
    answers

(* --- Differential: auto encoding vs the powerset oracle ----------------- *)

let const_pool = [| "a"; "b"; "c"; "d" |]

let gen_nonrec_db =
  QCheck.Gen.(
    let fact p gens =
      let* args = flatten_l gens in
      return (D.Fact.of_strings p args)
    in
    let* n = int_range 2 7 in
    list_repeat n
      (oneof
         [
           fact "e" [ oneofa const_pool; oneofa const_pool ];
           fact "f" [ oneofa const_pool ];
           fact "g" [ oneofa const_pool ];
         ]))

let arb_nonrec_db =
  QCheck.make gen_nonrec_db ~print:(fun facts ->
      String.concat " " (List.map D.Fact.to_string facts))

let nonrec_program = parse_program "p(X) :- e(X,Y), f(Y). p(X) :- g(X)."

let prop_auto_encoding_equals_powerset =
  QCheck.Test.make ~count:60
    ~name:"acyclicity-free enumeration = powerset oracle" arb_nonrec_db
    (fun facts ->
      let db = D.Database.of_list facts in
      let answers = P.Explain.answers (P.Explain.query nonrec_program "p") db in
      List.for_all
        (fun goal ->
          let members =
            sorted_members
              (P.Enumerate.to_list (P.Enumerate.create nonrec_program db goal))
          in
          let oracle = Reference_oracle.why_un_powerset nonrec_program db goal in
          List.length members = List.length oracle
          && List.for_all2 D.Fact.Set.equal members oracle)
        answers)

(* --- Differential: FO rewriting vs Membership --------------------------- *)

let parse src =
  let program, facts = D.Parser.program_of_string src in
  (program, D.Database.of_list facts)

let sym = D.Symbol.intern

let gen_candidate db =
  QCheck.Gen.(
    let facts = D.Database.to_list db in
    let* keep = list_repeat (List.length facts) bool in
    return
      (List.fold_left2
         (fun acc f k -> if k then D.Fact.Set.add f acc else acc)
         D.Fact.Set.empty facts keep))

(* The paper's FO rewriting (Thm. 9, 14(2), 25) decides membership on
   the candidate alone; it must agree with the procedures [whyprov
   member] runs. *)
let fo_rewritings program pred =
  List.map
    (fun (variant, reference) ->
      (P.Fo_rewrite.compile ~variant program (sym pred), reference))
    [
      (P.Fo_rewrite.Any, P.Membership.why);
      (P.Fo_rewrite.Unambiguous, P.Membership.why_un);
      (P.Fo_rewrite.Non_recursive, P.Membership.why_nr);
    ]

let prop_fo_rewriting_equals_membership =
  let rewritings = lazy (fo_rewritings nonrec_program "p") in
  QCheck.Test.make ~count:60 ~name:"FO rewriting = membership procedures"
    arb_nonrec_db
    (fun facts ->
      let db = D.Database.of_list facts in
      let candidate = QCheck.Gen.generate1 (gen_candidate db) in
      List.for_all
        (fun goal ->
          List.for_all
            (fun (rw, reference) ->
              P.Fo_rewrite.member rw candidate (D.Fact.args goal)
              = reference nonrec_program db goal candidate)
            (Lazy.force rewritings))
        (D.Eval.answers nonrec_program (sym "p") db))

let test_fo_path_rejects_non_subset () =
  let db =
    D.Database.of_list
      [ D.Fact.of_strings "g" [ "a" ]; D.Fact.of_strings "e" [ "a"; "b" ] ]
  in
  let q = P.Explain.query nonrec_program "p" in
  let goal = D.Fact.of_strings "p" [ "a" ] in
  let candidate =
    D.Fact.Set.of_list
      [ D.Fact.of_strings "g" [ "a" ]; D.Fact.of_strings "g" [ "zzz" ] ]
  in
  Alcotest.(check bool) "candidate outside the database rejected" false
    (P.Explain.why_provenance ~variant:`Any q db goal candidate)

(* --- why_UN decided on the candidate -------------------------------------- *)

(* [Membership.why_un] encodes over [Database.of_set candidate]; on
   recursive programs it must decide what [Enumerate.member] decides
   over the full database. Candidates: the first members of each answer
   (over the full database), each with one fact removed, and one random
   subset of the database. *)
let candidate_db_agrees program db =
  let model = D.Eval.seminaive program db in
  let goals =
    List.concat_map
      (fun p ->
        let acc = ref [] in
        D.Database.iter_pred model p (fun f -> acc := f :: !acc);
        List.sort D.Fact.compare !acc)
      (D.Program.idb program)
    |> List.filteri (fun i _ -> i < 4)
  in
  let rng = Util.Rng.create (D.Database.size db) in
  let facts = D.Database.to_list db in
  List.for_all
    (fun goal ->
      let members =
        P.Enumerate.to_list ~limit:3 (P.Enumerate.create program db goal)
      in
      let random =
        List.filter (fun _ -> Util.Rng.bool rng) facts |> D.Fact.Set.of_list
      in
      let candidates =
        random
        :: List.concat_map
             (fun m -> m :: List.map (fun f -> D.Fact.Set.remove f m) (D.Fact.Set.elements m))
             members
      in
      let fresh = P.Enumerate.create program db goal in
      List.for_all
        (fun c ->
          P.Membership.why_un program db goal c = P.Enumerate.member fresh c)
        candidates)
    goals

(* Randprog databases sometimes assert intensional facts, which the
   analyzer rejects (WP004), the provenance layer rejects too and the
   paper's databases never hold; they are dropped here. *)
let extensional_instance seed =
  W.Randprog.extensional (W.Randprog.generate ~max_facts:12 (Util.Rng.create seed))

let prop_why_un_candidate_randprog =
  QCheck.Test.make ~count:40
    ~name:"why_un on the candidate = member over the database (random programs)"
    (QCheck.make
       ~print:(fun seed -> W.Randprog.to_string (extensional_instance seed))
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let t = extensional_instance seed in
      candidate_db_agrees (W.Randprog.program t) (W.Randprog.database t))

let tc_program = parse_program "tc(X,Y) :- e(X,Y). tc(X,Z) :- tc(X,Y), e(Y,Z)."

let prop_why_un_candidate_tc =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 8 in
      list_repeat n
        (let* x = oneofa const_pool in
         let* y = oneofa const_pool in
         return (D.Fact.of_strings "e" [ x; y ])))
  in
  QCheck.Test.make ~count:60
    ~name:"why_un on the candidate = member over the database (tc)"
    (QCheck.make gen ~print:(fun facts ->
         String.concat " " (List.map D.Fact.to_string facts)))
    (fun facts -> candidate_db_agrees tc_program (D.Database.of_list facts))

(* --- FO rewriting over a query cone ------------------------------------ *)

(* A recursive program whose q-cone (the rules backward-reachable from
   q) is non-recursive and constant-free: every derivation of a q fact
   uses only cone rules, so the FO rewriting of the cone decides q's
   why_UN for the whole program. *)
let cone_src =
  {|
  p(X,Y) :- e(X,Y).
  q(X) :- p(X,Y), f(Y).
  tc(X,Y) :- e(X,Y).
  tc(X,Z) :- tc(X,Y), e(Y,Z).
|}

let q_cone_src = {|
  p(X,Y) :- e(X,Y).
  q(X) :- p(X,Y), f(Y).
|}

(* The FO rewriting of the q-cone decides exactly what the SAT-backed
   [Membership.why_un] decides over the full program, on random
   databases and candidates. *)
let prop_cone_fo =
  let gen =
    QCheck.Gen.(
      let pool = [| "a"; "b"; "c"; "d" |] in
      let* n_e = int_range 1 6 in
      let* e_facts =
        list_repeat n_e
          (let* x = oneofa pool in
           let* y = oneofa pool in
           return (D.Fact.of_strings "e" [ x; y ]))
      in
      let* n_f = int_range 1 3 in
      let* f_facts =
        list_repeat n_f
          (let* y = oneofa pool in
           return (D.Fact.of_strings "f" [ y ]))
      in
      let* mask = int_bound 1023 in
      return (e_facts @ f_facts, mask))
  in
  let arb =
    QCheck.make gen ~print:(fun (facts, mask) ->
        Printf.sprintf "%s mask=%d"
          (String.concat " " (List.map D.Fact.to_string facts))
          mask)
  in
  let program = lazy (fst (parse cone_src)) in
  let rewriting =
    lazy
      (P.Fo_rewrite.compile ~variant:P.Fo_rewrite.Unambiguous
         (parse_program q_cone_src) (sym "q"))
  in
  QCheck.Test.make ~count:60 ~name:"cone FO membership = SAT membership" arb
    (fun (facts, mask) ->
      let program = Lazy.force program in
      let db = D.Database.of_list facts in
      let candidate =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) facts
        |> D.Fact.Set.of_list
      in
      D.Eval.answers program (sym "q") db
      |> List.for_all (fun goal ->
             let fo =
               P.Fo_rewrite.member (Lazy.force rewriting) candidate
                 (D.Fact.args goal)
             in
             let sat = P.Membership.why_un program db goal candidate in
             fo = sat))

let suite =
  let tc = Alcotest.test_case in
  ( "analysis",
    [
      tc "error codes" `Quick test_error_codes;
      tc "warning codes" `Quick test_warning_codes;
      tc "recursive scc info" `Quick test_info_recursive_scc;
      tc "underscore exempt" `Quick test_underscore_exempt;
      tc "diagnostics sorted" `Quick test_diagnostics_sorted_and_positioned;
      tc "check_program entry" `Quick test_check_program_entry;
      tc "make_checked" `Quick test_make_checked;
      tc "classifier lattice" `Quick test_classifier_lattice;
      tc "classifier structure" `Quick test_classifier_structure;
      tc "cycle witness" `Quick test_cycle_witness;
      tc "workload classes" `Quick test_workload_classes;
      tc "encoding selection" `Quick test_selection;
      tc "differential encodings" `Quick test_differential_encodings;
      tc "differential encodings (workloads)" `Quick
        test_differential_encodings_workloads;
      QCheck_alcotest.to_alcotest prop_auto_encoding_equals_powerset;
      QCheck_alcotest.to_alcotest prop_fo_rewriting_equals_membership;
      tc "fo path rejects non-subset" `Quick test_fo_path_rejects_non_subset;
      QCheck_alcotest.to_alcotest prop_why_un_candidate_randprog;
      QCheck_alcotest.to_alcotest prop_why_un_candidate_tc;
      QCheck_alcotest.to_alcotest prop_cone_fo;
    ] )
