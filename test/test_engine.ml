(* Differential tests for the interned flat-tuple engine ({!Engine})
   against the structural reference implementation
   ({!Harden.Oracle.seminaive}): the same model facts, the same
   derivation rank for every fact, and bit-identical backward
   rule-instance extraction. Models are compared as sorted fact lists —
   the two engines agree on the set and on every rank, but the join
   planner reorders rule bodies, so the order in which a round
   {e first} emits a fact (and hence model iteration order) may differ
   on non-linear programs. *)

module D = Datalog
module W = Workloads

let fact = Alcotest.testable D.Fact.pp D.Fact.equal

let ranked_facts table =
  D.Fact.Table.fold (fun f r acc -> (D.Fact.to_string f, r) :: acc) table []
  |> List.sort compare

(* A rule instance as a comparable string; [Eval.derivations] returns
   both engines' instances in the same order when the models iterate
   identically, but the extraction contract is about the {e set}, so
   normalize. *)
let instances program model f =
  D.Eval.derivations program model f
  |> List.map (fun (r, body) ->
         D.Rule.to_string r ^ " @ "
         ^ String.concat ", " (List.map D.Fact.to_string body))
  |> List.sort compare

(* Run both engines and require bit-identical results. [extract] caps
   how many model facts get their rule instances cross-checked. *)
let differential ?(extract = 12) name program db =
  let r_struct = D.Fact.Table.create 64 in
  let m_struct = Harden.Oracle.seminaive ~ranks:r_struct program db in
  let sorted_struct =
    List.sort D.Fact.compare (D.Database.to_list m_struct)
  in
  let r_flat = D.Fact.Table.create 64 in
  let m_flat = D.Engine.seminaive ~ranks:r_flat program db in
  Alcotest.(check (list fact))
    (name ^ ": model") sorted_struct
    (List.sort D.Fact.compare (D.Database.to_list m_flat));
  Alcotest.(check (list (pair string int)))
    (name ^ ": ranks") (ranked_facts r_struct) (ranked_facts r_flat);
  (* Spread the extraction sample across the model so it hits facts of
     several rounds, not just the first predicate's prefix. *)
  let n = List.length sorted_struct in
  let stride = max 1 (n / max 1 extract) in
  List.iteri
    (fun i f ->
      if i mod stride = 0 then
        Alcotest.(check (list string))
          (name ^ ": instances of " ^ D.Fact.to_string f)
          (instances program m_struct f)
          (instances program m_flat f))
    sorted_struct

(* Random positive (hence stratified) programs, drawn from the shared
   distribution in {!Workloads.Randprog} — the same generator (and
   shrinker) the hardening fuzzer uses, so any failure found here has a
   ready-made reproducer format. qcheck supplies the seed; the instance
   itself comes from the deterministic Rng-driven generator. *)
let gen_program_db =
  QCheck.Gen.map
    (fun seed -> W.Randprog.generate (Util.Rng.create seed))
    QCheck.Gen.(int_bound ((1 lsl 30) - 1))

let arb_program_db = QCheck.make gen_program_db ~print:W.Randprog.to_string

let prop_random_differential =
  QCheck.Test.make ~count:80 ~name:"random programs: flat = structural"
    arb_program_db (fun t ->
      differential ~extract:8 "random"
        (W.Randprog.program t) (W.Randprog.database t);
      true)

(* Every bundled workload, at sizes small enough to run as a test but
   deep enough to recurse for several rounds. *)
let test_workload_differential () =
  let cases =
    [ ( "transclosure",
        (W.Transclosure.scenario ()).W.Scenario.program,
        W.Transclosure.bitcoin_like ~facts:300 ~seed:11 () );
      ( "csda",
        (W.Csda.scenario ()).W.Scenario.program,
        W.Csda.dataflow_graph ~facts:300 ~seed:12 ~points:0 () );
      ( "andersen",
        (W.Andersen.scenario ()).W.Scenario.program,
        W.Andersen.statements ~facts:300 ~seed:13 ~vars:0 () );
      ( "galen",
        (W.Galen.scenario ()).W.Scenario.program,
        W.Galen.ontology ~facts:200 ~seed:14 ~classes:0 () );
      ( "doctors",
        (List.hd (W.Doctors.scenarios ())).W.Scenario.program,
        W.Doctors.database ~facts:300 ~seed:15 () ) ]
  in
  List.iter (fun (name, program, db) -> differential name program db) cases

(* The model order contract ({!Harden.Fuzz.check_model_order}) over 500
   fixed seeds: in both engines' models, each predicate's facts start
   with the database's, in database order. Derived-row order is
   not asserted: the engines already order derived rows differently on
   a few seeds. *)
let test_model_order () =
  for seed = 0 to 499 do
    let t = W.Randprog.generate (Util.Rng.create seed) in
    let program = W.Randprog.program t and db = W.Randprog.database t in
    List.iter
      (fun (engine, model) ->
        match Harden.Fuzz.check_model_order db model with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "seed %d, %s engine: %s" seed engine msg)
      [ ("flat", D.Engine.seminaive program db);
        ("structural", Harden.Oracle.seminaive program db) ]
  done

(* The engine shares the database's relations and never adds to them:
   after [Engine.seminaive] the database has its size, its facts and
   its iteration order, and a second evaluation over the same database
   gives the same model in the same order. The hand-written case holds
   a fact of the derived predicate [tc], so the engine copies that
   relation and appends to the copy. *)
let test_database_read_only () =
  let in_order db =
    let acc = ref [] in
    D.Database.iter (fun f -> acc := D.Fact.to_string f :: !acc) db;
    List.rev !acc
  in
  let check name program db =
    let before = in_order db in
    let ranks = D.Fact.Table.create 64 in
    let m1 = D.Engine.seminaive ~ranks program db in
    Alcotest.(check (list string)) (name ^ ": database unchanged") before (in_order db);
    Alcotest.(check int) (name ^ ": database size") (List.length before) (D.Database.size db);
    let m2 = D.Engine.seminaive program db in
    Alcotest.(check (list string)) (name ^ ": same model, same order") (in_order m1)
      (in_order m2);
    Alcotest.(check (list string)) (name ^ ": database unchanged twice") before (in_order db)
  in
  for seed = 0 to 199 do
    let t = W.Randprog.generate (Util.Rng.create seed) in
    check (Printf.sprintf "seed %d" seed) (W.Randprog.program t) (W.Randprog.database t)
  done;
  let program =
    fst
      (D.Parser.program_of_string
         "tc(X,Y) :- edge(X,Y).\ntc(X,Z) :- tc(X,Y), edge(Y,Z).\n")
  in
  let f = D.Fact.of_strings in
  let db =
    D.Database.of_list [ f "edge" [ "a"; "b" ]; f "tc" [ "c"; "a" ]; f "edge" [ "b"; "c" ] ]
  in
  check "tc with a database tc fact" program db;
  let tc = ref [] in
  D.Database.iter_pred (D.Engine.seminaive program db) (D.Symbol.intern "tc") (fun x ->
      tc := D.Fact.to_string x :: !tc);
  Alcotest.(check string) "database tc fact first" "tc(c,a)" (List.nth (List.rev !tc) 0);
  Alcotest.(check int) "model tc facts" 6 (List.length !tc)

(* [Symbol.to_string (Symbol.intern s) = s] — the round-trip every flat
   row depends on to decode back into facts. *)
let test_intern_round_trip () =
  let strings =
    [ "a"; "edge"; ""; "UTF-8 héllo"; "with space"; "0"; "c0"; "q?~" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) ("round-trip " ^ s) s
        (D.Symbol.to_string (D.Symbol.intern s));
      Alcotest.(check int) ("stable id " ^ s) (D.Symbol.intern s)
        (D.Symbol.intern s))
    strings

let suite =
  ( "engine",
    [ Alcotest.test_case "workload differential" `Quick test_workload_differential;
      Alcotest.test_case "model order" `Quick test_model_order;
      Alcotest.test_case "database read-only" `Quick test_database_read_only;
      Alcotest.test_case "intern round-trip" `Quick test_intern_round_trip ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_random_differential ] )
