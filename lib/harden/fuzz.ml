(* Differential fuzzing with shrinking (docs/HARDENING.md).

   Differential loops driven by one seed:

   - CNF: random and structured formulas solved by a portfolio of
     solver configurations (preprocessing on/off, on-the-fly
     subsumption on/off, restart and learnt-database variants), each
     checked against the truth-table oracle (Sat.Reference), with SAT
     models evaluated on the original clauses and UNSAT answers
     DRAT-certified; each configuration also enumerates the models
     with blocking clauses, the incremental use the why-provenance
     enumerator makes of the solver, and must count them like the
     oracle.

   - Datalog: random programs (Workloads.Randprog) run through the
     flat engine against the structural reference engine
     (Oracle.seminaive), and the SAT-based why_UN enumeration
     (preprocessing on/off) against the powerset oracle
     (Oracle.why_un_powerset).

   - Parser: a decorated Randprog text read by the in-place parser
     (Datalog.Parser.parse_raw) and by the token-tuple reference parser
     (Oracle.parse_raw): clauses, fact rows, positions, errors and the
     symbols interned, in order.

   Any disagreement is minimized by greedy deletion — clauses then
   literals for CNF, rules then facts for Datalog — and rendered as a
   reproducer file whose header records the seed, so the exact failing
   iteration can be regenerated. *)

module L = Sat.Lit
module D = Datalog
module P = Provenance
module W = Workloads
module Metrics = Util.Metrics

let m_iters = Metrics.counter "harden.fuzz.iters"
let m_cnf_checks = Metrics.counter "harden.fuzz.cnf_checks"
let m_enum_checks = Metrics.counter "harden.fuzz.enum_checks"
let m_engine_checks = Metrics.counter "harden.fuzz.engine_checks"
let m_prov_checks = Metrics.counter "harden.fuzz.prov_checks"
let m_parser_checks = Metrics.counter "harden.fuzz.parser_checks"
let m_bugs = Metrics.counter "harden.fuzz.bugs"
let m_shrink_tests = Metrics.counter "harden.fuzz.shrink_tests"

(* --- CNF differential -------------------------------------------------- *)

type cnf_answer =
  | A_sat of bool array
  | A_unsat
  | A_failed of string  (* solver-internal cross-check (DRAT) failed *)

type cnf_solver = {
  cs_name : string;
  cs_solve : nvars:int -> L.t list list -> cnf_answer;
  cs_enumerate : limit:int -> nvars:int -> L.t list list -> bool array list;
}

(* A full pipeline instance as one opaque answer function: preprocess
   (optionally), solve under the given config, reconstruct the model /
   certify the refutation. Bug-injection tests substitute their own. *)
let pipeline_solver ~name ~config ~preprocess () =
  let solve ~nvars clauses =
    let pre =
      if preprocess then
        Some
          (Sat.Preprocess.simplify ~drat:true ~nvars
             ~frozen:(fun _ -> false) clauses)
      else None
    in
    let clauses' =
      match pre with Some p -> Sat.Preprocess.clauses p | None -> clauses
    in
    let solver = Sat.Solver.create ~config () in
    Sat.Solver.enable_proof_logging solver;
    (match pre with
    | Some p -> Sat.Solver.append_proof solver (Sat.Preprocess.proof p)
    | None -> ());
    Sat.Solver.ensure_vars solver nvars;
    List.iter (Sat.Solver.add_clause solver) clauses';
    match Sat.Solver.solve solver with
    | Sat.Solver.Sat ->
      let m = Sat.Solver.model solver in
      A_sat
        (match pre with Some p -> Sat.Preprocess.extend_model p m | None -> m)
    | Sat.Solver.Unsat -> (
      match
        Sat.Drat.check ~nvars ~original:clauses
          ~proof:(Sat.Solver.proof solver)
      with
      | Ok () -> A_unsat
      | Error e -> A_failed ("DRAT certification failed: " ^ e))
  in
  (* Solve, block the model, solve again: every variable is frozen, so
     the simplified formula keeps the whole model set. *)
  let enumerate ~limit ~nvars clauses =
    let clauses' =
      if preprocess then
        let p =
          Sat.Preprocess.simplify ~nvars ~frozen:(fun _ -> true) clauses
        in
        if Sat.Preprocess.unsat p then None else Some (Sat.Preprocess.clauses p)
      else Some clauses
    in
    match clauses' with
    | None -> []
    | Some clauses' ->
      let solver = Sat.Solver.create ~config () in
      Sat.Solver.ensure_vars solver nvars;
      List.iter (Sat.Solver.add_clause solver) clauses';
      let rec go n acc =
        if n >= limit then acc
        else
          match Sat.Solver.solve solver with
          | Sat.Solver.Unsat -> acc
          | Sat.Solver.Sat ->
            let m = Sat.Solver.model solver in
            Sat.Solver.add_clause solver
              (List.init nvars (fun v -> if m.(v) then L.neg v else L.pos v));
            go (n + 1) (m :: acc)
      in
      List.rev (go 0 [])
  in
  { cs_name = name; cs_solve = solve; cs_enumerate = enumerate }

let panel_configs =
  let d = Sat.Solver.default_config in
  [
    ("default", d);
    ("fast-restarts", { d with restart_base = 16; restart_factor = 1.5 });
    ("no-inprocessing", { d with otf_subsume = false });
    ("tiny-db", { d with max_learnts = 16; max_learnts_growth_pct = 10 });
  ]

let default_cnf_solvers () =
  let solver name ~preprocess =
    pipeline_solver
      ~name:(name ^ if preprocess then "+pre" else "+raw")
      ~config:(List.assoc name panel_configs) ~preprocess ()
  in
  [
    solver "default" ~preprocess:true;
    solver "default" ~preprocess:false;
    solver "fast-restarts" ~preprocess:true;
    solver "no-inprocessing" ~preprocess:false;
    solver "tiny-db" ~preprocess:true;
  ]

let falsified_clause model clauses =
  let sat_lit l =
    let v = L.var l in
    v < Array.length model && model.(v) = L.sign l
  in
  let rec go i = function
    | [] -> None
    | c :: rest -> if List.exists sat_lit c then go (i + 1) rest else Some i
  in
  go 0 clauses

(* Models enumerated per solver: enough blocking clauses to push the
   search through restarts and learnt-clause reductions on these small
   formulas, few enough to keep an iteration cheap. *)
let enum_limit = 256

(* The enumeration must stop at UNSAT exactly when the oracle's models
   run out (or reach [enum_limit]), and every model must satisfy the
   original clauses; blocking makes them pairwise distinct. *)
let check_enumeration s (cnf : Gen.cnf) ~expected_models =
  Metrics.incr m_enum_checks;
  let models = s.cs_enumerate ~limit:enum_limit ~nvars:cnf.nvars cnf.clauses in
  match List.find_map (fun m -> falsified_clause m cnf.clauses) models with
  | Some i ->
    Error
      (Printf.sprintf "[%s] enumerated model falsifies original clause %d"
         s.cs_name i)
  | None ->
    let n = List.length models in
    if n = min expected_models enum_limit then Ok ()
    else
      Error
        (Printf.sprintf "[%s] enumerated %d model(s); oracle counts %d"
           s.cs_name n expected_models)

(* One solver's verdict on one formula, judged against the oracle.
   [Error message] describes the first discrepancy. *)
let check_cnf_with solvers (cnf : Gen.cnf) =
  let expected_models = Sat.Reference.count_models ~nvars:cnf.nvars cnf.clauses in
  let expected = expected_models > 0 in
  let rec go = function
    | [] -> Ok ()
    | s :: rest -> (
      let next () =
        Result.bind (check_enumeration s cnf ~expected_models) (fun () -> go rest)
      in
      match s.cs_solve ~nvars:cnf.nvars cnf.clauses with
      | A_failed msg -> Error (Printf.sprintf "[%s] %s" s.cs_name msg)
      | A_sat model ->
        if not expected then
          Error
            (Printf.sprintf "[%s] answered SAT; oracle says UNSAT" s.cs_name)
        else (
          match falsified_clause model cnf.clauses with
          | None -> next ()
          | Some i ->
            Error
              (Printf.sprintf "[%s] model falsifies original clause %d"
                 s.cs_name i))
      | A_unsat ->
        if expected then
          Error
            (Printf.sprintf "[%s] answered UNSAT; oracle says SAT" s.cs_name)
        else next ())
  in
  Metrics.incr m_cnf_checks;
  go solvers

(* Greedy clause deletion, then literal deletion inside the surviving
   clauses, re-running [failing] after every candidate step; stops at a
   1-minimal failing clause list. Deleting a literal strengthens the
   clause (changes the formula), but "still fails the differential" is
   the only invariant shrinking needs. *)
let shrink_cnf ~failing clauses =
  let try_step clauses' =
    Metrics.incr m_shrink_tests;
    if failing clauses' then Some clauses' else None
  in
  let rec drop_clause i clauses =
    if i >= List.length clauses then clauses
    else
      match try_step (List.filteri (fun j _ -> j <> i) clauses) with
      | Some clauses' -> drop_clause 0 clauses'
      | None -> drop_clause (i + 1) clauses
  in
  let rec drop_lit i j clauses =
    match List.nth_opt clauses i with
    | None -> clauses
    | Some c ->
      if j >= List.length c then drop_lit (i + 1) 0 clauses
      else if List.length c <= 1 then drop_lit (i + 1) 0 clauses
      else
        let c' = List.filteri (fun k _ -> k <> j) c in
        let clauses' = List.mapi (fun k c0 -> if k = i then c' else c0) clauses in
        (match try_step clauses' with
        | Some clauses' -> drop_lit i j clauses'
        | None -> drop_lit i (j + 1) clauses)
  in
  drop_lit 0 0 (drop_clause 0 clauses)

(* --- Datalog differentials -------------------------------------------- *)

(* The model order contract: each predicate's facts in a model start
   with the database's facts of it, in database order. That order
   reaches closure and encoding order downstream. The order of
   derived facts is not part of it: the two engines join in different
   orders. *)
let check_model_order db model =
  let facts m p =
    let acc = ref [] in
    D.Database.iter_pred m p (fun f -> acc := f :: !acc);
    List.rev !acc
  in
  let prefix_ok p =
    let expected = facts db p in
    let n = List.length expected in
    List.equal D.Fact.equal expected (List.filteri (fun i _ -> i < n) (facts model p))
  in
  match List.find_opt (fun p -> not (prefix_ok p)) (D.Database.preds db) with
  | None -> Ok ()
  | Some p ->
    Error (Printf.sprintf "model order: the database facts of %s differ" (D.Symbol.name p))

(* Flat engine against the structural engine: same model set, same
   ranks, both models in the order contract. Returns the first
   discrepancy. *)
let check_engine (t : W.Randprog.t) =
  Metrics.incr m_engine_checks;
  let program = W.Randprog.program t in
  let db = W.Randprog.database t in
  let ranked table =
    D.Fact.Table.fold (fun f r acc -> (f, r) :: acc) table []
    |> List.sort compare
  in
  let sorted m = List.sort D.Fact.compare (D.Database.to_list m) in
  let r_struct = D.Fact.Table.create 64 in
  let m_struct = Oracle.seminaive ~ranks:r_struct program db in
  let r_flat = D.Fact.Table.create 64 in
  let m_flat = D.Engine.seminaive ~ranks:r_flat program db in
  if not (List.equal D.Fact.equal (sorted m_struct) (sorted m_flat)) then
    Error
      (Printf.sprintf "flat engine model differs from structural (%d vs %d facts)"
         (D.Database.size m_flat) (D.Database.size m_struct))
  else if ranked r_struct <> ranked r_flat then Error "flat engine ranks differ"
  else Result.bind (check_model_order db m_struct) (fun () -> check_model_order db m_flat)

(* SAT-based why_UN enumeration (preprocessing on and off) against the
   powerset oracle, on every derived IDB fact of the model. *)
let check_provenance (t : W.Randprog.t) =
  let program = W.Randprog.program t in
  (* The provenance layer rejects intensional facts in the database. *)
  let db = W.Randprog.database (W.Randprog.extensional t) in
  if D.Database.size db > 9 then
    invalid_arg "Fuzz.check_provenance: database too large for the oracle";
  let model = D.Eval.seminaive program db in
  let goals =
    D.Database.to_list model
    |> List.filter (fun f ->
           D.Program.is_idb program (D.Fact.pred f)
           && not (D.Database.mem db f))
    |> List.sort D.Fact.compare
  in
  if goals = [] then Ok ()
  else begin
    Metrics.incr m_prov_checks;
    let check_goal goal =
      let oracle = Oracle.why_un_powerset program db goal in
      let rec go = function
        | [] -> Ok ()
        | preprocess :: rest ->
          let members =
            P.Enumerate.to_list
              (P.Enumerate.create ~preprocess program db goal)
            |> List.sort D.Fact.Set.compare
          in
          if not (List.equal D.Fact.Set.equal members oracle) then
            Error
              (Printf.sprintf
                 "why_UN(%s) with preprocess=%b: %d member(s) vs %d from the \
                  powerset oracle"
                 (D.Fact.to_string goal) preprocess (List.length members)
                 (List.length oracle))
          else go rest
      in
      go [ true; false ]
    in
    let rec first_error = function
      | [] -> Ok ()
      | g :: rest -> (
        match check_goal g with Ok () -> first_error rest | e -> e)
    in
    first_error goals
  end

(* --- Parser differential ------------------------------------------------

   A template is a source text with [nonce_mark] after every name. Each
   side of the differential reads the template rendered with a nonce of
   its own, so each parse interns new symbols and the order it interns
   them in shows. All nonces have the same length: both renderings put
   every token at the same position. *)

let nonce_mark = '\001'
let nonces = ref 0

let fresh_nonce () =
  incr nonces;
  Printf.sprintf "n%08d" !nonces

let render template nonce =
  String.concat nonce (String.split_on_char nonce_mark template)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '-'

(* Marks every name of a well-formed clause: each identifier but a bare
   [_], and each quoted name inside its closing quote. *)
let mark s =
  let b = Buffer.create (2 * String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ':' then begin
      Buffer.add_string b ":-";
      i := !i + 2
    end
    else if c = '\'' then begin
      let j = String.index_from s (!i + 1) '\'' in
      Buffer.add_string b (String.sub s !i (j - !i));
      Buffer.add_char b nonce_mark;
      Buffer.add_char b '\'';
      i := j + 1
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      let name = String.sub s !i (!j - !i) in
      Buffer.add_string b name;
      if name <> "_" then Buffer.add_char b nonce_mark;
      i := !j
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

(* Clauses the Randprog schema does not draw: zero-arity atoms, a
   predicate at several arities, quoted names (one spanning two lines),
   anonymous variables and non-ground bodyless clauses. *)
let extra_clauses =
  [|
    "ready."; "go :- ready."; "go :- ready, f(c1)."; "e(c1)."; "e(c1,c2,c3)."; "f('two\nlines').";
    "f('')."; "f(_)."; "e(X,_)."; "e(_x,c1)."; "p(c1,'a b')."; "q(X) :- e(X,_).";
    "s(X,Y) :- e(X,Y), ready."; "f(c2, c3)."; "q(X) :- ghost(X, Y).";
  |]

let spaces = [| " "; "  "; "\t"; "\n"; "\r\n"; "\n% a comment: 'quoted', (parens).\n"; "%\n" |]
let strays = [| '$'; ':'; '\''; '('; ')'; ','; '.'; '%'; '-'; '_'; 'A'; '#'; '\n'; ' '; '!' |]

let parser_template rng =
  let t =
    W.Randprog.generate ~min_rules:0 ~max_rules:4 ~min_facts:0 ~max_facts:12 (Util.Rng.split rng)
  in
  let clauses =
    Array.of_list
      (List.map D.Rule.to_string t.W.Randprog.rules
      @ List.map (fun f -> D.Fact.to_string f ^ ".") t.W.Randprog.facts
      @ List.init (Util.Rng.int rng 5) (fun _ -> Util.Rng.choose rng extra_clauses))
  in
  Util.Rng.shuffle rng clauses;
  let space () = Util.Rng.choose rng spaces in
  let text =
    String.concat ""
      (Array.to_list
         (Array.map
            (fun c ->
              let c =
                String.concat "" (List.map (fun w -> w ^ space ()) (String.split_on_char ' ' (mark c)))
              in
              if Util.Rng.bool rng then space () ^ c else c)
            clauses))
  in
  let text =
    if Util.Rng.int rng 4 = 0 then String.sub text 0 (Util.Rng.int rng (String.length text + 1))
    else text
  in
  if Util.Rng.int rng 4 = 0 then begin
    let b = Buffer.create (String.length text + 4) in
    let at = Util.Rng.int rng (String.length text + 1) in
    Buffer.add_string b (String.sub text 0 at);
    for _ = 1 to Util.Rng.int_in rng 1 3 do
      Buffer.add_char b (Util.Rng.choose rng strays)
    done;
    Buffer.add_string b (String.sub text at (String.length text - at));
    Buffer.contents b
  end
  else text

(* Both parsers' results in one shape: the rules and non-ground
   bodyless clauses, and the facts as blocks of (predicate, arity, rows
   in file order), blocks in order of first occurrence. *)
type parsed = {
  p_clauses : D.Parser.raw_clause list;
  p_blocks : (D.Symbol.t * int * (D.Symbol.t array * D.Pos.t) list) list;
}

let parse_new ~file text =
  let raw = D.Parser.parse_raw ~file text in
  {
    p_clauses = raw.D.Parser.clauses;
    p_blocks =
      List.map
        (fun (b : D.Parser.block) ->
          ( b.D.Parser.pred,
            b.D.Parser.arity,
            List.init b.D.Parser.length (fun i ->
                (D.Fact.args (D.Parser.row_fact b i), D.Parser.row_pos raw b i)) ))
        raw.D.Parser.blocks;
  }

let parse_reference ~file text =
  let clauses = Oracle.parse_raw ~file text in
  let is_fact (c : D.Parser.raw_clause) = c.D.Parser.raw_body = [] && D.Atom.is_ground c.D.Parser.raw_head in
  let facts = List.filter is_fact clauses in
  let keys =
    List.fold_left
      (fun keys (c : D.Parser.raw_clause) ->
        let key = (c.D.Parser.raw_head.D.Atom.pred, D.Atom.arity c.D.Parser.raw_head) in
        if List.mem key keys then keys else key :: keys)
      [] facts
  in
  {
    p_clauses = List.filter (fun c -> not (is_fact c)) clauses;
    p_blocks =
      List.rev_map
        (fun (pred, arity) ->
          ( pred,
            arity,
            List.filter_map
              (fun (c : D.Parser.raw_clause) ->
                let a = c.D.Parser.raw_head in
                if a.D.Atom.pred = pred && D.Atom.arity a = arity then
                  Some (D.Fact.args (D.Atom.to_fact a), c.D.Parser.raw_pos)
                else None)
              facts ))
        keys;
  }

(* [s] with every occurrence of [sub] (non-empty) removed. *)
let remove_all ~sub s =
  let b = Buffer.create (String.length s) and n = String.length sub in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then i := !i + n
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* A parse as comparable data. A symbol the parse interned prints as
   [#k], the k-th it interned, an older one by name; [interned] lists
   the names it interned in order, nonce removed ([_#] for a fresh
   anonymous variable); [counts] are its eval.intern.lookups, .hits and
   .symbols. *)
type view = {
  outcome : (string list, D.Pos.t * string) result;
  counts : int list;
  interned : string list;
}

let view_parse ~nonce parse =
  let was = Metrics.is_enabled () in
  Metrics.set_enabled true;
  let counters () =
    List.map Metrics.get_counter
      [ "eval.intern.lookups"; "eval.intern.hits"; "eval.intern.symbols" ]
  in
  let before = counters () and base = D.Symbol.count () in
  let result = try Ok (parse ()) with D.Parser.Error (pos, msg) -> Error (pos, msg) in
  let counts = List.map2 ( - ) (counters ()) before in
  Metrics.set_enabled was;
  let sym s = if s >= base then "#" ^ string_of_int (s - base) else D.Symbol.name s in
  let pos p = D.Pos.to_string p in
  let term = function D.Term.Var v -> "V" ^ sym v | D.Term.Const c -> sym c in
  let atom (a : D.Atom.t) =
    Printf.sprintf "%s(%s)@%s" (sym a.D.Atom.pred)
      (String.concat "," (Array.to_list (Array.map term a.D.Atom.args)))
      (pos a.D.Atom.pos)
  in
  let clause (c : D.Parser.raw_clause) =
    Printf.sprintf "clause@%s %s :- %s" (pos c.D.Parser.raw_pos) (atom c.D.Parser.raw_head)
      (String.concat ", " (List.map atom c.D.Parser.raw_body))
  in
  let row (args, p) = String.concat "," (Array.to_list (Array.map sym args)) ^ "@" ^ pos p in
  let block (pred, arity, rows) =
    Printf.sprintf "block %s/%d: %s" (sym pred) arity (String.concat " " (List.map row rows))
  in
  let outcome =
    Result.map (fun p -> List.map clause p.p_clauses @ List.map block p.p_blocks) result
  in
  let interned =
    List.init (D.Symbol.count () - base) (fun k ->
        let name = D.Symbol.name (base + k) in
        if String.starts_with ~prefix:"_#" name then "_#" else remove_all ~sub:nonce name)
  in
  { outcome; counts; interned }

let first_difference l1 l2 =
  let rec go i = function
    | x :: r1, y :: r2 -> if x = y then go (i + 1) (r1, r2) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<none>")
    | [], y :: _ -> Some (i, "<none>", y)
    | [], [] -> None
  in
  go 0 (l1, l2)

let check_parser template =
  Metrics.incr m_parser_checks;
  let file = "fuzz.dl" in
  let side parse =
    let nonce = fresh_nonce () in
    let text = render template nonce in
    view_parse ~nonce (fun () -> parse ~file text)
  in
  (* A stray character can split a name from its mark; such a name is
     the same in every rendering. A first reference parse interns it,
     so that neither compared parse interns it anew. *)
  ignore (side parse_reference);
  let reference = side parse_reference in
  let fast = side parse_new in
  let ints l = String.concat "/" (List.map string_of_int l) in
  match (reference.outcome, fast.outcome) with
  | Error (p1, m1), Error (p2, m2) when not (D.Pos.equal p1 p2 && m1 = m2) ->
    Error
      (Printf.sprintf "parse error %s: %s, but the reference raises %s: %s" (D.Pos.to_string p2) m2
         (D.Pos.to_string p1) m1)
  | Error (p, m), Ok _ ->
    Error (Printf.sprintf "parsed, but the reference raises %s: %s" (D.Pos.to_string p) m)
  | Ok _, Error (p, m) ->
    Error (Printf.sprintf "parse error %s: %s, but the reference parses" (D.Pos.to_string p) m)
  | Ok l1, Ok l2 when l1 <> l2 ->
    let i, x, y = Option.get (first_difference l1 l2) in
    Error (Printf.sprintf "item %d reads %s; the reference reads %s" i y x)
  | _ ->
    if reference.counts <> fast.counts then
      Error
        (Printf.sprintf "eval.intern lookups/hits/symbols %s; the reference %s" (ints fast.counts)
           (ints reference.counts))
    else
      match first_difference reference.interned fast.interned with
      | Some (i, x, y) ->
        Error (Printf.sprintf "interned %s as symbol %d; the reference interned %s" y i x)
      | None -> Ok ()

(* Deletes chunks of the template, halving the chunk size, while the
   differential still fails. *)
let shrink_template template =
  let failing t = Result.is_error (check_parser t) in
  let rec pass t size =
    if size = 0 then t
    else begin
      let rec try_at t i =
        if i >= String.length t then t
        else
          let len = min size (String.length t - i) in
          let t' = String.sub t 0 i ^ String.sub t (i + len) (String.length t - i - len) in
          Metrics.incr m_shrink_tests;
          if failing t' then try_at t' i else try_at t (i + size)
      in
      pass (try_at t 0) (size / 2)
    end
  in
  pass template (max 1 (String.length template / 2))

(* --- The fuzz loop ----------------------------------------------------- *)

type bug = {
  seed : int;
  iter : int;
  kind : string;       (* "cnf", "engine", "provenance" or "parser" *)
  detail : string;     (* solver/family label for context *)
  message : string;
  cnf : Gen.cnf option;           (* shrunk, for kind = "cnf" *)
  prog : W.Randprog.t option;     (* shrunk, for "engine" and "provenance" *)
  text : string option;           (* shrunk source, for kind = "parser" *)
}

type summary = {
  s_seed : int;
  s_iters : int;
  s_cnf_checks : int;
  s_engine_checks : int;
  s_prov_checks : int;
  s_parser_checks : int;
  s_bugs : bug list;
}

(* Per-iteration streams derived from the master seed: check order
   never perturbs the instances, so every failure is reproducible from
   (seed, iter) alone. *)
let iter_rng seed i = Util.Rng.create (seed lxor (i * 0x9e3779b1) lxor 0x5deece66)

let gen_cnf_instance rng =
  match Util.Rng.int rng 6 with
  | 0 | 1 ->
    let nvars = Util.Rng.int_in rng 5 12 in
    let ratio = 2.0 +. Util.Rng.float rng 4.0 in
    ("random-3cnf", Gen.random_kcnf rng ~nvars ~ratio)
  | 2 ->
    let nvars = Util.Rng.int_in rng 3 10 in
    let ratio = 1.0 +. Util.Rng.float rng 2.0 in
    ("random-2cnf", Gen.random_kcnf ~k:2 rng ~nvars ~ratio)
  | 3 ->
    let holes = Util.Rng.int_in rng 1 3 in
    let pigeons = Util.Rng.int_in rng 1 (holes + 2) in
    ("pigeonhole", Gen.pigeonhole ~pigeons ~holes)
  | 4 ->
    let length = Util.Rng.int_in rng 2 7 in
    ("xor-chain", Gen.xor_chain ~length ~sat:(Util.Rng.bool rng))
  | _ ->
    let width = Util.Rng.int_in rng 2 3 in
    let height = 2 in
    let colors = Util.Rng.int_in rng 1 2 in
    ("grid-coloring", Gen.grid_coloring ~width ~height ~colors)

let run ?(solvers = default_cnf_solvers ()) ?progress ~seed ~iters () =
  let bugs = ref [] in
  let push b =
    Metrics.incr m_bugs;
    bugs := b :: !bugs
  in
  (* Local tallies: the registry counters only tick when metrics are
     enabled, and shrinking re-enters the checkers — the summary counts
     top-level checks only. *)
  let cnf_checks = ref 0 and engine_checks = ref 0 and prov_checks = ref 0 in
  let parser_checks = ref 0 in
  for i = 0 to iters - 1 do
    Metrics.incr m_iters;
    (match progress with Some f -> f i | None -> ());
    let rng = iter_rng seed i in
    (* CNF differential. *)
    let family, cnf = gen_cnf_instance (Util.Rng.split rng) in
    incr cnf_checks;
    (match check_cnf_with solvers cnf with
    | Ok () -> ()
    | Error message ->
      let failing clauses =
        check_cnf_with solvers { cnf with Gen.clauses } |> Result.is_error
      in
      let clauses = shrink_cnf ~failing cnf.Gen.clauses in
      push
        {
          seed; iter = i; kind = "cnf"; detail = family; message;
          cnf = Some { cnf with Gen.clauses }; prog = None; text = None;
        });
    (* Flat-vs-structural engine differential. *)
    let t = W.Randprog.generate (Util.Rng.split rng) in
    incr engine_checks;
    (match check_engine t with
    | Ok () -> ()
    | Error message ->
      let still_failing t' = Result.is_error (check_engine t') in
      let t' = W.Randprog.shrink ~still_failing t in
      push
        {
          seed; iter = i; kind = "engine"; detail = "randprog"; message;
          cnf = None; prog = Some t'; text = None;
        });
    (* why_UN against the powerset oracle, on a tiny database. *)
    let t =
      W.Randprog.generate ~min_rules:1 ~max_rules:4 ~min_facts:2 ~max_facts:8
        (Util.Rng.split rng)
    in
    incr prov_checks;
    (match check_provenance t with
    | Ok () -> ()
    | Error message ->
      let still_failing t' =
        D.Database.size (W.Randprog.database t') <= 9
        && Result.is_error (check_provenance t')
      in
      let t' = W.Randprog.shrink ~still_failing t in
      push
        {
          seed; iter = i; kind = "provenance"; detail = "randprog"; message;
          cnf = None; prog = Some t'; text = None;
        });
    (* In-place parser against the reference parser. *)
    let template = parser_template (Util.Rng.split rng) in
    incr parser_checks;
    match check_parser template with
    | Ok () -> ()
    | Error message ->
      push
        {
          seed; iter = i; kind = "parser"; detail = "randprog-text"; message;
          cnf = None; prog = None; text = Some (render (shrink_template template) "0");
        }
  done;
  {
    s_seed = seed;
    s_iters = iters;
    s_cnf_checks = !cnf_checks;
    s_engine_checks = !engine_checks;
    s_prov_checks = !prov_checks;
    s_parser_checks = !parser_checks;
    s_bugs = List.rev !bugs;
  }

(* --- Reproducers ------------------------------------------------------- *)

(* The header records everything needed to regenerate the instance:
   master seed, iteration, check kind, and the failure message. The
   instance itself follows, so the file is directly loadable even
   without the fuzzer. *)
let reproducer bug =
  match (bug.cnf, bug.prog, bug.text) with
  | Some cnf, _, _ ->
    ( Printf.sprintf "whyfuzz-%06d-%d.cnf" bug.seed bug.iter,
      Gen.to_dimacs
        ~comments:
          [
            Printf.sprintf "whyfuzz seed=%d iter=%d kind=%s family=%s"
              bug.seed bug.iter bug.kind bug.detail;
            bug.message;
            "regenerate: whyfuzz fuzz --seed " ^ string_of_int bug.seed;
          ]
        cnf )
  | None, Some prog, _ ->
    ( Printf.sprintf "whyfuzz-%06d-%d.dl" bug.seed bug.iter,
      Printf.sprintf
        "%% whyfuzz seed=%d iter=%d kind=%s\n%% %s\n%% regenerate: whyfuzz \
         fuzz --seed %d\n%s"
        bug.seed bug.iter bug.kind bug.message bug.seed
        (W.Randprog.to_string prog) )
  | None, None, Some text ->
    ( Printf.sprintf "whyfuzz-%06d-%d.dl" bug.seed bug.iter,
      Printf.sprintf
        "%% whyfuzz seed=%d iter=%d kind=%s\n%% %s\n%% regenerate: whyfuzz \
         fuzz --seed %d\n%% every name ends in 0 where the differential puts its nonce\n%s"
        bug.seed bug.iter bug.kind bug.message bug.seed text )
  | None, None, None -> invalid_arg "Fuzz.reproducer: bug carries no instance"

let write_reproducers ~dir summary =
  if summary.s_bugs <> [] && not (Sys.file_exists dir) then
    Sys.mkdir dir 0o755;
  List.map
    (fun bug ->
      let name, contents = reproducer bug in
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      path)
    summary.s_bugs

let pp_summary ppf s =
  Format.fprintf ppf
    "fuzz seed %d: %d iteration(s), %d cnf / %d engine / %d provenance / %d \
     parser check(s), %d bug(s)"
    s.s_seed s.s_iters s.s_cnf_checks s.s_engine_checks s.s_prov_checks s.s_parser_checks
    (List.length s.s_bugs);
  List.iter
    (fun b ->
      Format.fprintf ppf "@.  [%s/%s @@ iter %d] %s" b.kind b.detail b.iter
        b.message)
    s.s_bugs
