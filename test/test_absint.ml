(* Abstract-interpretation layer (lib/analysis/absint.ml): lattice unit
   tests, the analyses on fixed programs, and the qcheck differentials
   the docs promise — sliced vs unsliced why-provenance (certificate +
   powerset oracle), and the cone-widened FO membership path vs the
   SAT path. *)

module D = Datalog
module P = Provenance
module W = Workloads
module A = Whyprov_analysis

let parse src =
  let program, facts = D.Parser.program_of_string src in
  (program, D.Database.of_list facts)

let sym = D.Symbol.intern

(* --- The constant lattice ---------------------------------------------- *)

let test_lattice () =
  let open A.Absint in
  let c xs = Consts (List.map sym xs) in
  Alcotest.(check bool) "join bot" true (join Bot (c [ "a" ]) = c [ "a" ]);
  Alcotest.(check bool) "join top" true (join Top (c [ "a" ]) = Top);
  Alcotest.(check bool)
    "join union" true
    (join (c [ "a" ]) (c [ "b" ]) = c [ "a"; "b" ]);
  Alcotest.(check bool)
    "join commutes" true
    (join (c [ "a"; "c" ]) (c [ "b" ]) = join (c [ "b" ]) (c [ "a"; "c" ]));
  (* Widening: a join exceeding max_consts collapses to Top. *)
  let big = c [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check bool) "widen" true (join big (c [ "e" ]) = Top);
  Alcotest.(check bool) "meet bot" true (meet Bot Top = Bot);
  Alcotest.(check bool)
    "meet intersect" true
    (meet (c [ "a"; "b" ]) (c [ "b"; "c" ]) = c [ "b" ]);
  Alcotest.(check bool)
    "meet disjoint" true
    (meet (c [ "a" ]) (c [ "b" ]) = Bot);
  Alcotest.(check bool) "meet top" true (meet Top (c [ "a" ]) = c [ "a" ])

(* --- The analyses on a fixed program ----------------------------------- *)

let slice_src =
  {|
  tc(X,Y) :- edge(X,Y).
  tc(X,Z) :- tc(X,Y), edge(Y,Z).
  junk(X) :- other(X), tc(X,X).
  dead(X) :- missing(X), edge(X,X).
  edge(a,b). edge(b,c). other(d).
|}

let test_analyses () =
  let program, db = parse slice_src in
  let t = A.Absint.analyze program db in
  Alcotest.(check bool) "edge derivable" true (A.Absint.derivable t (sym "edge"));
  Alcotest.(check bool) "tc derivable" true (A.Absint.derivable t (sym "tc"));
  Alcotest.(check bool)
    "missing empty" false
    (A.Absint.derivable t (sym "missing"));
  Alcotest.(check bool) "dead empty" false (A.Absint.derivable t (sym "dead"));
  (* junk(X) :- other(X), tc(X,X): other ⊆ {d} but no tc fact can reach
     d, so the constant analysis refutes the body. *)
  Alcotest.(check bool) "junk empty" false (A.Absint.derivable t (sym "junk"));
  (match A.Absint.constants t (sym "edge") with
  | Some [| c0; c1 |] ->
    Alcotest.(check bool)
      "edge col0" true
      (c0 = A.Absint.Consts [ sym "a"; sym "b" ]);
    Alcotest.(check bool)
      "edge col1" true
      (c1 = A.Absint.Consts [ sym "b"; sym "c" ])
  | _ -> Alcotest.fail "edge constants missing");
  let s = A.Absint.slice t ~query:(sym "tc") in
  Alcotest.(check int) "kept" 2 (List.length s.A.Absint.s_kept);
  Alcotest.(check int) "dropped" 2 (List.length s.A.Absint.s_dropped);
  Alcotest.(check bool) "certified" true (A.Absint.certify s db);
  let edb_stats = A.Absint.stats t in
  match D.Stats.find edb_stats (sym "edge") with
  | Some { D.Stats.rows; distinct } ->
    Alcotest.(check (float 1e-9)) "edge rows exact" 2.0 rows;
    Alcotest.(check (float 1e-9)) "edge distinct col0" 2.0 distinct.(0)
  | None -> Alcotest.fail "edge stats missing"

let test_adornments () =
  let program, db =
    parse
      {|
  tc(X,Y) :- edge(X,Y).
  tc(X,Z) :- tc(X,Y), edge(Y,Z).
  edge(a,b).
|}
  in
  let t = A.Absint.analyze program db in
  (* tc^bb is the query itself; the recursive rule calls tc with its
     first argument bound by the head, hence tc^bf. *)
  Alcotest.(check (list (pair string string)))
    "adornments"
    [ ("tc", "bb"); ("tc", "bf") ]
    (List.map
       (fun (p, ad) -> (D.Symbol.name p, ad))
       (A.Absint.adornments t ~query:(sym "tc")))

(* Regression for the fuzzer-found seeding bug: stored facts of an
   intensional predicate enter the model at rank 0, so they must seed
   the constant, derivability and cardinality analyses like any other
   stored fact. *)
let idb_fact_src = {|
  q(W) :- p(W,Y).
  p(c3,Z) :- q(Z), e(Z,Z).
  p(c1,c1).
|}

let test_idb_fact_seeding () =
  let program, db = parse idb_fact_src in
  let t = A.Absint.analyze program db in
  Alcotest.(check bool) "p non-empty" true (A.Absint.derivable t (sym "p"));
  Alcotest.(check bool) "q non-empty" true (A.Absint.derivable t (sym "q"));
  match D.Stats.find (A.Absint.stats t) (sym "p") with
  | Some { D.Stats.rows; _ } ->
    Alcotest.(check bool) "p rows ≥ stored fact" true (rows >= 1.0)
  | None -> Alcotest.fail "p stats missing"

(* Regression for the fuzzer-found status-flip bug: slicing away every
   rule of a cone predicate would turn it extensional, making its
   stored facts why-provenance leaves they are not under the original
   program. The slice must retain one (never-firing) rule instead. *)
let test_slice_keeps_idb_status () =
  let program, db = parse idb_fact_src in
  let t = A.Absint.analyze program db in
  let s = A.Absint.slice t ~query:(sym "q") in
  Alcotest.(check bool)
    "p stays intensional" true
    (D.Program.is_idb s.A.Absint.s_program (sym "p"));
  Alcotest.(check bool) "certified" true (A.Absint.certify s db);
  let goal = D.Fact.of_strings "q" [ "c1" ] in
  let members prog database =
    P.Enumerate.to_list (P.Enumerate.create prog database goal)
    |> List.sort D.Fact.Set.compare
  in
  Alcotest.(check bool)
    "why-sets agree" true
    (List.equal D.Fact.Set.equal (members program db)
       (members s.A.Absint.s_program (A.Absint.relevant_db s db)))

(* --- The cone-widened FO path ------------------------------------------ *)

(* Recursive program whose q-cone is non-recursive and constant-free:
   the whole-program gate refuses, the cone gate accepts. *)
let cone_src =
  {|
  p(X,Y) :- e(X,Y).
  q(X) :- p(X,Y), f(Y).
  tc(X,Y) :- e(X,Y).
  tc(X,Z) :- tc(X,Y), e(Y,Z).
|}

let test_fo_cone_gate () =
  let program, _ = parse (cone_src ^ "e(a,b). f(b).") in
  Alcotest.(check bool)
    "whole program refused" false
    (A.Selection.fo_eligible program);
  (match A.Selection.fo_cone program (sym "q") with
  | Some cone ->
    Alcotest.(check bool) "cone non-recursive" false (D.Program.is_recursive cone);
    Alcotest.(check bool)
      "cone omits tc" false
      (List.mem (sym "tc") (D.Program.idb cone))
  | None -> Alcotest.fail "expected a q-cone");
  Alcotest.(check bool)
    "tc cone refused (recursive)" true
    (A.Selection.fo_cone program (sym "tc") = None)

(* --- QCheck differentials ---------------------------------------------- *)

let arb_randprog ?min_rules ?max_rules ?min_facts ?max_facts () =
  QCheck.make
    QCheck.Gen.(
      map
        (fun s ->
          W.Randprog.generate ?min_rules ?max_rules ?min_facts ?max_facts
            (Util.Rng.create s))
        (int_bound 1_000_000))
    ~print:W.Randprog.to_string

(* Slicing is invisible: the certificate holds, and the sliced pipeline
   produces exactly the why-sets of the powerset oracle run on the
   ORIGINAL program and database. *)
let prop_slice =
  QCheck.Test.make ~count:30 ~name:"slice certificate + oracle why-sets"
    (arb_randprog ~min_rules:1 ~max_rules:4 ~min_facts:2 ~max_facts:8 ())
    (fun t ->
      let program = W.Randprog.program t and db = W.Randprog.database t in
      let analysis = A.Absint.analyze program db in
      let model = D.Eval.seminaive program db in
      List.for_all
        (fun q ->
          let s = A.Absint.slice analysis ~query:q in
          if not (A.Absint.certify s db) then
            QCheck.Test.fail_reportf "certificate failed for %s"
              (D.Symbol.name q)
          else begin
            let sliced_db = A.Absint.relevant_db s db in
            D.Database.to_list model
            |> List.filter (fun f ->
                   D.Symbol.equal (D.Fact.pred f) q
                   && not (D.Database.mem db f))
            |> List.for_all (fun g ->
                   let sliced =
                     P.Enumerate.to_list
                       (P.Enumerate.create s.A.Absint.s_program sliced_db g)
                     |> List.sort D.Fact.Set.compare
                   in
                   let oracle = Harden.Oracle.why_un_powerset program db g in
                   List.equal D.Fact.Set.equal sliced oracle)
          end)
        (D.Program.idb program))

(* The cone-widened FO membership path decides exactly what the general
   SAT-backed path decides, on random databases and candidates. *)
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
  QCheck.Test.make ~count:60 ~name:"cone FO membership = SAT membership" arb
    (fun (facts, mask) ->
      let program, _ = parse cone_src in
      let db = D.Database.of_list facts in
      let q = P.Explain.query program "q" in
      let candidate =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) facts
        |> D.Fact.Set.of_list
      in
      D.Eval.answers program (sym "q") db
      |> List.for_all (fun goal ->
             let fo =
               P.Explain.why_provenance ~variant:`Unambiguous q db goal
                 candidate
             in
             let sat = P.Membership.why_un program db goal candidate in
             fo = sat))

let suite =
  let tc = Alcotest.test_case in
  ( "absint",
    [
      tc "constant lattice" `Quick test_lattice;
      tc "analyses on a fixed program" `Quick test_analyses;
      tc "adornments" `Quick test_adornments;
      tc "IDB-fact seeding" `Quick test_idb_fact_seeding;
      tc "slice keeps IDB status" `Quick test_slice_keeps_idb_status;
      tc "fo_cone gate" `Quick test_fo_cone_gate;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_slice; prop_cone_fo ] )
