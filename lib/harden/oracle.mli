(** Solver-free reference oracles for differential testing. *)

val why_un_powerset :
  Datalog.Program.t ->
  Datalog.Database.t ->
  Datalog.Fact.t ->
  Datalog.Fact.Set.t list
(** The complete [why_UN(fact, db, program)] member list, sorted by
    {!Datalog.Fact.Set.compare}, computed by deciding every database
    subset through the naive proof-tree enumeration (Proposition 41) —
    no SAT solver, no closure sharing, nothing in common with the
    pipeline under test. Exponential in the database size.
    @raise Invalid_argument beyond 14 facts. *)

val seminaive :
  ?ranks:int Datalog.Fact.Table.t ->
  Datalog.Program.t ->
  Datalog.Database.t ->
  Datalog.Database.t
(** The structural semi-naive fixpoint: joins {!Datalog.Atom.t} /
    {!Datalog.Eval.binding} values directly over {!Datalog.Database}
    indexes, with none of the flat engine's interning, compiled plans or
    in-place relations. The differential oracle of
    {!Datalog.Eval.seminaive}: model, ranks ([ranks] is filled with the
    first-derivation round of every model fact, 0 for database facts)
    and each predicate's database-fact prefix must agree with it on
    every program. Records no trace events or profile; of the metrics,
    only [closure.tuples_matched] ticks, through {!Datalog.Eval.match_atom},
    the closure layer's structural join. *)

val parse_raw : ?file:string -> string -> Datalog.Parser.raw_clause list
(** The token-tuple reference parser: every clause, facts included, as a
    positioned {!Datalog.Parser.raw_clause}, in file order. The
    differential oracle of {!Datalog.Parser.parse_raw}: it raises the
    same {!Datalog.Parser.Error}s, reads the same clauses at the same
    positions, and interns the same symbols in the same order (an atom's
    arguments left to right, then its predicate).
    @raise Datalog.Parser.Error on malformed input. *)
