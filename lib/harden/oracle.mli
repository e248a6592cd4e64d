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
    only [eval.tuples_matched] ticks, through {!Datalog.Eval.match_atom}. *)
