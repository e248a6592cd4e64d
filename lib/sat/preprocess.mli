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
    clauses.

    {b Cost.} A run works on flat [int] arrays: one clause store
    (strengthened clauses shrink in place), per-literal occurrence
    arrays sized from the input, and reusable work lists. BVE counts a
    variable's non-tautological resolvents before it builds any, and a
    variable is tried again only after a clause containing it was
    added, deleted or strengthened. On the 50 explain-dense formulas of
    the whybench benchmark (3,893 clauses, 8,643 literals each) a run
    allocates about 0.1 Mwords.

    {b Retention.} The working state is dropped when {!simplify}
    returns. A [t] holds the simplified clauses as one flat array, the
    stats, the DRAT text, and the reconstruction stack as one flat
    array; on those formulas that is about 1.3 words per input literal.
    The stack alone ({!reconstruction}, what {!Encode} keeps for the
    rest of a request) is 2 words per eliminated or substituted
    variable plus one per saved clause and per saved literal. *)

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
  eliminated_vars : int;
      (** BVE eliminations (with [equivalent_vars], the reconstruction
          stack's depth) *)
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

val iter_clauses : t -> (Lit.t list -> unit) -> unit
(** [iter_clauses t f] calls [f] on each clause of {!clauses}, in the
    same order, without building the list of them. *)

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

type reconstruction
(** The reconstruction stack alone: what {!extend_model} reads. A caller
    that keeps it instead of [t] lets the simplified clauses, the stats
    and the proof go once they are loaded. *)

val reconstruction : t -> reconstruction

val extend : reconstruction -> bool array -> bool array
(** [extend (reconstruction t) m = extend_model t m]. *)

val stack_words : reconstruction -> int
(** Length of the flat stack, in words: 2 per eliminated or substituted
    variable, plus 1 per saved clause and 1 per saved literal. *)

val stats : t -> stats

val proof : t -> string
(** The DRAT derivation recorded with [~drat:true] (empty otherwise). *)

val pp_stats : Format.formatter -> stats -> unit
