(** SatELite-style CNF preprocessing (Eén & Biere, SAT 2005).

    Simplifies a clause set before it is loaded into {!Solver}:

    - {b top-level unit propagation}: unit clauses are applied to
      fixpoint, removing satisfied clauses and false literals;
    - {b backward subsumption} and {b self-subsuming resolution},
      driven by per-literal occurrence lists with 62-bit clause
      signatures as a cheap subset pre-filter;
    - {b equivalent-literal substitution}: strongly connected
      components of the binary-implication graph (the 2-clause
      digraph with edges [¬a → b] and [¬b → a] per clause [a ∨ b])
      are literal equivalence classes; every class is collapsed onto
      one representative (a frozen literal when the class contains
      one), rewriting all occurrences, before BVE sees the formula;
    - {b bounded variable elimination} (BVE) by clause distribution:
      a variable is resolved away when the set of non-tautological
      resolvents is no larger than the set of clauses it replaces
      (plus a configurable growth allowance).

    {b Frozen variables.} Elimination must never touch a variable the
    rest of the pipeline observes from outside the solver: the db-fact
    variables that {!Encode.db_of_model}, blocking clauses and
    membership assumptions read, or any DIMACS variable the caller
    wants reported faithfully. The [frozen] predicate passed to
    {!simplify} exempts those variables from BVE and from
    substitution (they still participate in propagation and
    subsumption, both of which preserve the full model set over the
    current variables).

    {b Model reconstruction.} Eliminated variables are pushed on a
    reconstruction stack together with the clauses in which they
    occurred positively at elimination time. {!extend_model} replays
    the stack in reverse elimination order to re-extend a model of the
    simplified formula into a model of the original formula — needed
    whenever a full model is read back (witness DAGs, the [satsolve]
    ["v"] line).

    The guarantee the enumerator relies on (and the differential tests
    pin down): the simplified formula has exactly the same models as
    the original when both are projected onto the non-eliminated
    variables — in particular onto any frozen set. Conjoining clauses
    over frozen variables only (blocking clauses, cardinality bounds)
    preserves this correspondence, so enumeration member sets are
    identical bit-for-bit.

    {b DRAT.} With [~drat:true] every derived clause (resolvents,
    strengthenings, equivalences) is recorded as a RUP addition and
    every removed clause as a deletion, in derivation order. Prepending
    this trace to the solver's own proof (see
    {!Solver.append_proof}) makes an UNSAT answer on the simplified
    formula checkable by {!Drat.check} against the {e original}
    clauses. *)

type config = {
  subsumption : bool;       (** backward subsumption *)
  self_subsumption : bool;  (** self-subsuming resolution (strengthening) *)
  bve : bool;               (** bounded variable elimination *)
  big : bool;
      (** equivalent-literal substitution over the binary-implication
          graph (SCC collapse), run after subsumption, before BVE *)
  bve_growth : int;
      (** extra clauses an elimination may add beyond the clauses it
          removes (SatELite uses 0) *)
  bve_max_occ : int;
      (** never try to eliminate a variable with more total occurrences
          than this (guards the quadratic resolvent distribution) *)
  bve_max_elim : int;
      (** stop after eliminating this many variables (micro-benchmarks
          use 1; [max_int] otherwise) *)
  max_rounds : int;         (** simplification rounds until fixpoint *)
}

val default : config

(** Everything the bench harness and [--stats] report about one
    {!simplify} run. *)
type stats = {
  original_vars : int;
  original_clauses : int;
  original_literals : int;
  clauses : int;            (** clauses in the simplified formula *)
  literals : int;           (** literals in the simplified formula *)
  eliminated_vars : int;    (** BVE eliminations (= reconstruction depth) *)
  fixed_vars : int;         (** variables assigned at top level *)
  subsumed_clauses : int;
  strengthened_clauses : int;  (** self-subsumption hits *)
  equivalent_vars : int;
      (** variables substituted away by binary-implication-graph SCC
          collapse (counted into the reconstruction stack like BVE) *)
  resolvents_added : int;
  rounds : int;             (** rounds actually run *)
}

type t

val simplify :
  ?config:config ->
  ?drat:bool ->
  nvars:int ->
  frozen:(int -> bool) ->
  Lit.t list list ->
  t
(** Simplifies the clause set. Variables are [0 .. nvars-1]; [frozen v]
    exempts [v] from elimination. The input list is not modified. *)

val clauses : t -> Lit.t list list
(** The simplified clause set, including one unit clause per top-level
    fixed variable and the empty clause if the set was refuted. *)

val unsat : t -> bool
(** The preprocessor refuted the formula outright. *)

val nvars : t -> int

val is_eliminated : t -> int -> bool

val extend_model : t -> bool array -> bool array
(** [extend_model t m] returns a copy of [m] with every eliminated
    variable reassigned so that the result satisfies the original
    clause set whenever [m] satisfies the simplified one. [m] may be
    longer than [nvars] (auxiliary variables allocated after
    preprocessing keep their values). *)

val stats : t -> stats

val proof : t -> string
(** The DRAT derivation recorded with [~drat:true] (empty otherwise). *)

val pp_stats : Format.formatter -> stats -> unit
