exception Error of Pos.t * string

let error pos msg = raise (Error (pos, msg))

let error_message pos msg =
  if Pos.is_none pos then msg else Pos.to_string pos ^ ": " ^ msg

type clause =
  | Clause_rule of Rule.t
  | Clause_fact of Fact.t

type raw_clause = {
  raw_head : Atom.t;
  raw_body : Atom.t list;
  raw_pos : Pos.t;
}

type block = {
  pred : Symbol.t;
  arity : int;
  mutable rows : int array;
  mutable length : int;
}

type raw = {
  file : string;
  clauses : raw_clause list;
  blocks : block list;
}

(* A row's position word: line in the high bits, column in the low 32. *)
let pack_pos line col = (line lsl 32) lor col

let row_pos raw b i =
  let w = b.rows.((i * (b.arity + 1)) + b.arity) in
  Pos.make ~file:raw.file ~line:(w lsr 32) ~col:(w land 0xffffffff) ()

let row_fact b i = Fact.make b.pred (Array.sub b.rows (i * (b.arity + 1)) b.arity)

(* Built back to front, so the list is the only allocation. *)
let facts raw =
  List.fold_left
    (fun acc b ->
      let acc = ref acc in
      for i = b.length - 1 downto 0 do
        acc := row_fact b i :: !acc
      done;
      !acc)
    [] (List.rev raw.blocks)

(* --- Lexer -----------------------------------------------------------

   The source is scanned in place. A token is its kind plus offsets into
   the source; identifiers and quoted constants are interned straight
   from their slice, so no token and no name is allocated. *)

type token =
  | Ident
  | Quoted
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Turnstile
  | Eof

type state = {
  src : string;
  file : string;
  mutable i : int;           (* scan offset *)
  mutable line : int;        (* line of offset [i] *)
  mutable line_start : int;  (* offset of that line's first character *)
  mutable tok : token;
  mutable tok_line : int;    (* position of the token's first character *)
  mutable tok_col : int;
  mutable tok_off : int;     (* the name of an [Ident] / [Quoted] *)
  mutable tok_len : int;
  (* The arguments of the atom parsed last: symbols, and which of them
     are variables. *)
  mutable args : int array;
  mutable vars : Bytes.t;
  mutable nargs : int;
  mutable blocks : block list;  (* newest first *)
  by_pred : (Symbol.t, block list) Hashtbl.t;
  mutable last : block;         (* the block that took the last row *)
}

let tok_pos st = Pos.make ~file:st.file ~line:st.tok_line ~col:st.tok_col ()
let fail_at st msg = error (tok_pos st) msg

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

(* Steps over the newline at [st.i]. *)
let newline st =
  st.i <- st.i + 1;
  st.line <- st.line + 1;
  st.line_start <- st.i

let rec skip_ws st =
  let src = st.src and n = String.length st.src in
  if st.i < n then
    match String.unsafe_get src st.i with
    | ' ' | '\t' | '\r' ->
      st.i <- st.i + 1;
      skip_ws st
    | '\n' ->
      newline st;
      skip_ws st
    | '%' ->
      while st.i < n && String.unsafe_get src st.i <> '\n' do
        st.i <- st.i + 1
      done;
      skip_ws st
    | _ -> ()

(* Errors and parsed atoms point at the token's first character, not
   at wherever the lexer stopped. *)
let bump st =
  skip_ws st;
  let src = st.src and n = String.length st.src in
  st.tok_line <- st.line;
  st.tok_col <- st.i - st.line_start + 1;
  if st.i >= n then st.tok <- Eof
  else
    match String.unsafe_get src st.i with
    | '(' -> st.i <- st.i + 1; st.tok <- Lparen
    | ')' -> st.i <- st.i + 1; st.tok <- Rparen
    | ',' -> st.i <- st.i + 1; st.tok <- Comma
    | '.' -> st.i <- st.i + 1; st.tok <- Dot
    | ':' ->
      st.i <- st.i + 1;
      if st.i < n && String.unsafe_get src st.i = '-' then begin
        st.i <- st.i + 1;
        st.tok <- Turnstile
      end
      else fail_at st "expected '-' after ':'"
    | '\'' ->
      let first = st.i + 1 in
      st.i <- first;
      while st.i < n && String.unsafe_get src st.i <> '\'' do
        if String.unsafe_get src st.i = '\n' then newline st else st.i <- st.i + 1
      done;
      if st.i >= n then fail_at st "unterminated quoted constant";
      st.tok_off <- first;
      st.tok_len <- st.i - first;
      st.i <- st.i + 1;
      st.tok <- Quoted
    | c when is_ident_char c ->
      let first = st.i in
      while st.i < n && is_ident_char (String.unsafe_get src st.i) do
        st.i <- st.i + 1
      done;
      st.tok_off <- first;
      st.tok_len <- st.i - first;
      st.tok <- Ident
    | c -> fail_at st (Printf.sprintf "unexpected character %C" c)

(* --- Parser ----------------------------------------------------------- *)

(* Interns the current token as the next argument. A bare [_] is a fresh
   variable; an identifier starting with [_] or an uppercase letter is a
   variable; any other identifier and every quoted name is a constant. *)
let push_term st =
  let var, sym =
    match st.tok with
    | Ident ->
      let c = String.unsafe_get st.src st.tok_off in
      if st.tok_len = 1 && c = '_' then (true, Symbol.fresh "_")
      else (c = '_' || (c >= 'A' && c <= 'Z'), Symbol.intern_sub st.src st.tok_off st.tok_len)
    | Quoted -> (false, Symbol.intern_sub st.src st.tok_off st.tok_len)
    | Eof -> fail_at st "expected a term, found end of input (unterminated atom?)"
    | _ -> fail_at st "expected a term"
  in
  if st.nargs = Array.length st.args then begin
    let n = 2 * st.nargs in
    let args = Array.make n 0 and vars = Bytes.make n '\000' in
    Array.blit st.args 0 args 0 st.nargs;
    Bytes.blit st.vars 0 vars 0 st.nargs;
    st.args <- args;
    st.vars <- vars
  end;
  st.args.(st.nargs) <- sym;
  Bytes.unsafe_set st.vars st.nargs (if var then '\001' else '\000');
  st.nargs <- st.nargs + 1

(* Parses an atom into [st.args] and returns its predicate. The
   arguments are interned left to right, then the predicate, once the
   token after the atom has been read: the order the symbol ids, and
   hence [Symbol.compare], depend on. *)
let parse_atom st =
  match st.tok with
  | Ident ->
    let off = st.tok_off and len = st.tok_len in
    st.nargs <- 0;
    bump st;
    if st.tok = Lparen then begin
      bump st;
      let rec terms () =
        push_term st;
        bump st;
        match st.tok with
        | Comma ->
          bump st;
          terms ()
        | Rparen -> bump st
        | Eof ->
          fail_at st "expected ',' or ')' in argument list, found end of input (unterminated atom?)"
        | _ -> fail_at st "expected ',' or ')' in argument list"
      in
      terms ()
    end;
    Symbol.intern_sub st.src off len
  | Eof -> fail_at st "expected a predicate name, found end of input"
  | _ -> fail_at st "expected a predicate name"

let ground st =
  let rec go i = i >= st.nargs || (Bytes.unsafe_get st.vars i = '\000' && go (i + 1)) in
  go 0

let atom st pred pos =
  Atom.make ~pos pred
    (Array.init st.nargs (fun i ->
         if Bytes.unsafe_get st.vars i = '\000' then Term.Const st.args.(i)
         else Term.Var st.args.(i)))

let dummy_block = { pred = -1; arity = -1; rows = [||]; length = 0 }

let block_for st pred arity =
  if st.last.pred = pred && st.last.arity = arity then st.last
  else
    let bs = Option.value (Hashtbl.find_opt st.by_pred pred) ~default:[] in
    match List.find_opt (fun b -> b.arity = arity) bs with
    | Some b -> b
    | None ->
      let b = { pred; arity; rows = Array.make (4 * (arity + 1)) 0; length = 0 } in
      st.blocks <- b :: st.blocks;
      Hashtbl.replace st.by_pred pred (b :: bs);
      b

(* Appends the ground atom in [st.args] to its block. *)
let push_row st pred line col =
  let b = block_for st pred st.nargs in
  st.last <- b;
  let stride = b.arity + 1 in
  let base = b.length * stride in
  if base + stride > Array.length b.rows then begin
    let rows = Array.make (2 * Array.length b.rows) 0 in
    Array.blit b.rows 0 rows 0 base;
    b.rows <- rows
  end;
  Array.blit st.args 0 b.rows base b.arity;
  b.rows.(base + b.arity) <- pack_pos line col;
  b.length <- b.length + 1

let parse_clause st =
  let line = st.tok_line and col = st.tok_col in
  let pred = parse_atom st in
  match st.tok with
  | Dot ->
    bump st;
    if ground st then begin
      push_row st pred line col;
      None
    end
    else
      let pos = Pos.make ~file:st.file ~line ~col () in
      Some { raw_head = atom st pred pos; raw_body = []; raw_pos = pos }
  | Turnstile ->
    let pos = Pos.make ~file:st.file ~line ~col () in
    let head = atom st pred pos in
    bump st;
    let rec atoms acc =
      let pos = tok_pos st in
      let a = atom st (parse_atom st) pos in
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
    Some { raw_head = head; raw_body = atoms []; raw_pos = pos }
  | _ -> fail_at st "expected '.' or ':-' after head atom"

let parse_raw ?(file = "") src =
  let st =
    {
      src; file; i = 0; line = 1; line_start = 0; tok = Eof; tok_line = 0; tok_col = 0;
      tok_off = 0; tok_len = 0; args = Array.make 8 0; vars = Bytes.make 8 '\000';
      nargs = 0; blocks = []; by_pred = Hashtbl.create 16; last = dummy_block;
    }
  in
  bump st;
  let rec clauses acc =
    match st.tok with
    | Eof -> List.rev acc
    | _ -> (
      match parse_clause st with
      | Some c -> clauses (c :: acc)
      | None -> clauses acc)
  in
  let clauses = clauses [] in
  { file; clauses; blocks = List.rev st.blocks }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_raw_file path = parse_raw ~file:path (read_file path)

(* Validating elaboration of a raw clause: a bodyless one is not ground
   (ground ones are block rows), a rule must be safe. The static
   analyzer performs the same checks on the raw form, reporting
   diagnostics instead of raising. *)
let rule_of_raw raw =
  if raw.raw_body = [] then
    error raw.raw_pos "fact with variables (a bodyless clause must be ground)"
  else
    match Rule.make_checked ~pos:raw.raw_pos raw.raw_head raw.raw_body with
    | Ok rule -> rule
    | Error msg -> error raw.raw_pos msg

(* Rules and facts back in file order: a stable sort on the position
   word of each clause. *)
let clauses_of_raw raw =
  let rules =
    List.map
      (fun r -> (pack_pos r.raw_pos.Pos.line r.raw_pos.Pos.col, Clause_rule (rule_of_raw r)))
      raw.clauses
  in
  let facts =
    List.concat_map
      (fun b ->
        List.init b.length (fun i ->
            (b.rows.((i * (b.arity + 1)) + b.arity), Clause_fact (row_fact b i))))
      raw.blocks
  in
  List.map snd (List.stable_sort (fun (p, _) (q, _) -> Int.compare p q) (rules @ facts))

let parse_string ?file src = clauses_of_raw (parse_raw ?file src)

let parse_file path = clauses_of_raw (parse_raw_file path)

let split clauses =
  let rules, facts =
    List.fold_left
      (fun (rs, fs) clause ->
        match clause with
        | Clause_rule r -> (r :: rs, fs)
        | Clause_fact f -> (rs, f :: fs))
      ([], []) clauses
  in
  (List.rev rules, List.rev facts)

let program_of_string src =
  let rules, facts = split (parse_string src) in
  (Program.make rules, facts)
