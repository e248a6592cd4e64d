(** Parser for the textual Datalog syntax.

    Syntax:
    {v
      % line comment
      path(X,Y) :- edge(X,Y).          % rule
      path(X,Z) :- path(X,Y), edge(Y,Z).
      edge(a,b).                        % fact (ground clause, no body)
    v}

    Identifiers starting with an uppercase letter or ['_'] are variables;
    identifiers starting with a lowercase letter or a digit, integers, and
    single-quoted strings are constants. A bare ['_'] is an anonymous
    variable (fresh at each occurrence).

    Two entry levels are provided. The {e raw} level
    ({!parse_raw}/{!parse_raw_file}) only enforces the grammar. It keeps
    rules and non-ground bodyless clauses as positioned head/body
    clauses, and packs ground facts into one {!block} of [int] rows per
    (predicate, arity) — unsafe rules and non-ground facts pass through,
    so the static analyzer ({!Whyprov_analysis.Check}) can report them
    as diagnostics. The {e validating} level
    ({!parse_string}/{!parse_file}) additionally elaborates to
    {!Rule.t}/{!Fact.t}, raising on malformed clauses.

    {b Interning order.} Both levels intern as they read, one
    {!Symbol.intern} per predicate, variable and constant occurrence
    ([_] takes a {!Symbol.fresh} name). An atom's arguments are
    interned left to right, then its predicate, once the token after
    the atom has been read: [pp(aa,bb).] interns [aa], [bb], [pp] in
    that order. Since {!Symbol.compare} orders by interning time, this
    order is part of the interface. *)

exception Error of Pos.t * string
(** Raised on syntax errors (both levels) and on validation errors
    (validating level), with the position of the offending token or
    clause. *)

val error_message : Pos.t -> string -> string
(** ["file:line:col: msg"] (position prefix omitted when unknown) —
    the display form of an {!Error}. *)

type clause =
  | Clause_rule of Rule.t
  | Clause_fact of Fact.t

type raw_clause = {
  raw_head : Atom.t;
  raw_body : Atom.t list;  (** [[]] for a bodyless clause (fact candidate) *)
  raw_pos : Pos.t;         (** position of the clause's first token *)
}

type block = private {
  pred : Symbol.t;
  arity : int;
  mutable rows : int array;
      (** [length] rows of [arity + 1] ints each, in file order: the
          argument symbols, then the position of the fact (line in the
          high bits, column in the low 32). Read it with {!row_pos} and
          {!row_fact}; ints past the last row are unused. *)
  mutable length : int;  (** number of rows, duplicates included *)
}
(** The ground facts of one predicate at one arity. *)

type raw = private {
  file : string;              (** recorded in every position *)
  clauses : raw_clause list;  (** rules and non-ground bodyless clauses, in file order *)
  blocks : block list;        (** in the order of their first rows in the file *)
}
(** A parsed source. *)

val row_pos : raw -> block -> int -> Pos.t
(** [row_pos raw b i]: the position of row [i] of [b] (its clause's first token). *)

val row_fact : block -> int -> Fact.t
(** Row [i] as a fact. *)

val facts : raw -> Fact.t list
(** Every fact of every block: block by block, rows in file order. *)

val parse_raw : ?file:string -> string -> raw
(** Grammar-only parse; atoms, clauses and rows carry positions ([file]
    is recorded in them). @raise Error on lexical/grammatical input
    errors. *)

val parse_raw_file : string -> raw
(** @raise Error on malformed input; @raise Sys_error on I/O failure. *)

val read_file : string -> string
(** The contents of a file. @raise Sys_error on I/O failure. *)

val parse_string : ?file:string -> string -> clause list
(** Rules and facts in file order. @raise Error on malformed input
    (including unsafe rules and non-ground bodyless clauses). *)

val parse_file : string -> clause list
(** @raise Error on malformed input; @raise Sys_error on I/O failure. *)

val split : clause list -> Rule.t list * Fact.t list
(** Partitions clauses into rules and facts, preserving order. *)

val program_of_string : string -> Program.t * Fact.t list
(** Convenience: parse and split, building the program. *)
