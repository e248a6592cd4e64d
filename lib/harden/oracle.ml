(* Brute-force why_UN oracle: walk the whole powerset of the database
   and keep every subset S that supports an unambiguous proof tree with
   support exactly S. The decision per subset goes through the naive
   compressed-DAG enumeration (Proposition 41) restricted to S — no SAT
   solver, no closure sharing — so it is independent of everything the
   batch pipeline does. Exponential: tiny databases only.

   Lives in the hardening library so the fuzzer and the test suites
   (via test/reference_oracle.ml) share one implementation. *)

module D = Datalog

let why_un_powerset program db fact =
  let facts = Array.of_list (Datalog.Database.to_list db) in
  let n = Array.length facts in
  if n > 14 then invalid_arg "why_un_powerset: database too large";
  let members = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let subset = ref Datalog.Fact.Set.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then
        subset := Datalog.Fact.Set.add facts.(i) !subset
    done;
    let s = !subset in
    let supports =
      Provenance.Naive.why_un program (Datalog.Database.of_set s) fact
    in
    if List.exists (Datalog.Fact.Set.equal s) supports then
      members := s :: !members
  done;
  List.sort Datalog.Fact.Set.compare !members

(* The structural semi-naive fixpoint: rules join Atom.t/binding values
   directly over Database indexes (Eval.match_atom/match_body), with no
   interning, no compiled plans and no flat rows. It shares nothing with
   Engine.seminaive beyond the Database store, which makes it the
   engine's differential oracle. *)

(* Evaluate [rule] with body atom [pos] matched against [delta] and the
   other atoms against [full]; call [emit] on each derived head fact.
   The delta atom is matched first (it is the smallest relation), the
   rest greedily by selectivity. *)
let fire_rule ~full ~delta ~pos rule emit =
  let b : D.Eval.binding = Hashtbl.create 16 in
  let body = D.Rule.body rule in
  let finish () = emit (D.Eval.ground b (D.Rule.head rule)) in
  if pos < 0 then D.Eval.match_body full b body finish
  else begin
    let delta_atom = List.nth body pos in
    let rest = List.filteri (fun i _ -> i <> pos) body in
    D.Eval.match_atom delta b delta_atom (fun _ ->
        D.Eval.match_body full b rest finish)
  end

let seminaive ?ranks program db =
  let model = D.Database.copy db in
  let record round fact =
    match ranks with
    | Some table ->
      if not (D.Fact.Table.mem table fact) then D.Fact.Table.add table fact round
    | None -> ()
  in
  D.Database.iter (record 0) db;
  (* Round 1: plain evaluation of every rule over the database. *)
  let delta = ref (D.Database.create ()) in
  List.iter
    (fun rule ->
      fire_rule ~full:model ~delta:model ~pos:(-1) rule (fun fact ->
          if not (D.Database.mem model fact) then
            ignore (D.Database.add !delta fact)))
    (D.Program.rules program);
  D.Database.iter
    (fun fact -> if D.Database.add model fact then record 1 fact)
    !delta;
  (* idb positions of each rule body, precomputed. *)
  let idb_positions rule =
    List.mapi (fun i (a : D.Atom.t) -> (i, a.D.Atom.pred)) (D.Rule.body rule)
    |> List.filter_map (fun (i, p) ->
           if D.Program.is_idb program p then Some i else None)
  in
  let rule_positions =
    List.map (fun r -> (r, idb_positions r)) (D.Program.rules program)
  in
  let round = ref 2 in
  while D.Database.size !delta > 0 do
    let next = D.Database.create () in
    List.iter
      (fun (rule, positions) ->
        List.iter
          (fun pos ->
            fire_rule ~full:model ~delta:!delta ~pos rule (fun fact ->
                if
                  (not (D.Database.mem model fact))
                  && not (D.Database.mem next fact)
                then ignore (D.Database.add next fact)))
          positions)
      rule_positions;
    D.Database.iter
      (fun fact -> if D.Database.add model fact then record !round fact)
      next;
    delta := next;
    incr round
  done;
  model

(* The token-tuple parser: a lexer that returns each token with its
   position, and a recursive-descent parser over them that builds every
   clause, facts included, as a [raw_clause]. It is the reference the
   in-place parser ([Datalog.Parser.parse_raw]) is differentially
   tested against: same clauses, same positions, same errors, and the
   same symbols interned in the same order. *)

type token =
  | Ident of string
  | Quoted of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Turnstile
  | Eof

type lexer = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let parse_error pos msg = raise (D.Parser.Error (pos, msg))

let pos_of lx = D.Pos.make ~file:lx.file ~line:lx.line ~col:lx.col ()

let peek_char lx =
  if lx.pos >= String.length lx.src then None else Some lx.src.[lx.pos]

let advance lx =
  (match peek_char lx with
  | Some '\n' ->
    lx.line <- lx.line + 1;
    lx.col <- 1
  | Some _ -> lx.col <- lx.col + 1
  | None -> ());
  lx.pos <- lx.pos + 1

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

let rec skip_ws lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance lx;
    skip_ws lx
  | Some '%' ->
    let rec to_eol () =
      match peek_char lx with
      | Some '\n' | None -> ()
      | Some _ ->
        advance lx;
        to_eol ()
    in
    to_eol ();
    skip_ws lx
  | _ -> ()

let next_token lx =
  skip_ws lx;
  let start = pos_of lx in
  let token =
    match peek_char lx with
    | None -> Eof
    | Some '(' -> advance lx; Lparen
    | Some ')' -> advance lx; Rparen
    | Some ',' -> advance lx; Comma
    | Some '.' -> advance lx; Dot
    | Some ':' ->
      advance lx;
      (match peek_char lx with
      | Some '-' -> advance lx; Turnstile
      | _ -> parse_error start "expected '-' after ':'")
    | Some '\'' ->
      advance lx;
      let first = lx.pos in
      let rec to_quote () =
        match peek_char lx with
        | Some '\'' -> ()
        | Some _ -> advance lx; to_quote ()
        | None -> parse_error start "unterminated quoted constant"
      in
      to_quote ();
      let s = String.sub lx.src first (lx.pos - first) in
      advance lx;
      Quoted s
    | Some c when is_ident_char c ->
      let first = lx.pos in
      let rec consume () =
        match peek_char lx with
        | Some c when is_ident_char c -> advance lx; consume ()
        | _ -> ()
      in
      consume ();
      Ident (String.sub lx.src first (lx.pos - first))
    | Some c -> parse_error start (Printf.sprintf "unexpected character %C" c)
  in
  (token, start)

type parser_state = {
  lx : lexer;
  mutable tok : token;
  mutable tok_pos : D.Pos.t;
}

let bump st =
  let tok, pos = next_token st.lx in
  st.tok <- tok;
  st.tok_pos <- pos

let fail_at st msg = parse_error st.tok_pos msg

let term_of st = function
  | Ident "_" -> D.Term.Var (D.Symbol.fresh "_")
  | Ident s when s.[0] = '_' || (s.[0] >= 'A' && s.[0] <= 'Z') -> D.Term.var s
  | Ident s -> D.Term.const s
  | Quoted s -> D.Term.const s
  | Eof -> fail_at st "expected a term, found end of input (unterminated atom?)"
  | _ -> fail_at st "expected a term"

(* The arguments are interned before the predicate: OCaml evaluates the
   application's arguments right to left. *)
let parse_atom st =
  match st.tok with
  | Ident name ->
    let atom_pos = st.tok_pos in
    bump st;
    if st.tok = Lparen then begin
      bump st;
      let rec terms acc =
        let t = term_of st st.tok in
        bump st;
        match st.tok with
        | Comma ->
          bump st;
          terms (t :: acc)
        | Rparen ->
          bump st;
          List.rev (t :: acc)
        | Eof ->
          fail_at st "expected ',' or ')' in argument list, found end of input (unterminated atom?)"
        | _ -> fail_at st "expected ',' or ')' in argument list"
      in
      D.Atom.make ~pos:atom_pos (D.Symbol.intern name) (Array.of_list (terms []))
    end
    else D.Atom.make ~pos:atom_pos (D.Symbol.intern name) [||]
  | Eof -> fail_at st "expected a predicate name, found end of input"
  | _ -> fail_at st "expected a predicate name"

let parse_raw_clause st =
  let clause_pos = st.tok_pos in
  let head = parse_atom st in
  match st.tok with
  | Dot ->
    bump st;
    { D.Parser.raw_head = head; raw_body = []; raw_pos = clause_pos }
  | Turnstile ->
    bump st;
    let rec atoms acc =
      let a = parse_atom st in
      match st.tok with
      | Comma ->
        bump st;
        atoms (a :: acc)
      | Dot ->
        bump st;
        List.rev (a :: acc)
      | Eof -> fail_at st "expected ',' or '.' after body atom, found end of input"
      | _ -> fail_at st "expected ',' or '.' after body atom"
    in
    { D.Parser.raw_head = head; raw_body = atoms []; raw_pos = clause_pos }
  | _ -> fail_at st "expected '.' or ':-' after head atom"

let parse_raw ?(file = "") src =
  let st =
    { lx = { src; file; pos = 0; line = 1; col = 1 }; tok = Eof; tok_pos = D.Pos.none }
  in
  bump st;
  let rec clauses acc =
    match st.tok with
    | Eof -> List.rev acc
    | _ -> clauses (parse_raw_clause st :: acc)
  in
  clauses []
