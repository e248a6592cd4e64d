(** The interned flat-tuple semi-naive engine.

    This is the evaluation core behind {!Eval.seminaive}: rules are
    compiled once into flat join plans ({!Plan}), facts live in
    per-predicate flat relations ({!Flatrel}), substitutions are plain
    [int array] register files, and every semi-naive round fires its
    (rule, delta-position) tasks in a fixed task order that appends
    derived rows straight into the model relations. See
    [docs/ARCHITECTURE.md] ("The flat engine") for the design
    and its invariants.

    Rounds are {e global} (round-synchronous over all rules), not
    stratum-local: for positive Datalog stratification is only a
    scheduling optimization, and global rounds are what make the
    recorded ranks equal to the paper's [min-dag-depth] (Proposition
    28). Strata are still computed — they order the task list and are
    exposed for diagnostics. *)

val strata : Program.t -> Symbol.t list list
(** The strongly connected components of the program's predicate
    graph in (a) topological order of the condensation — stratum 0
    first. Every schema predicate appears in exactly one stratum. *)

val seminaive :
  ?ranks:int Fact.Table.t ->
  Program.t ->
  Database.t ->
  Database.t
(** [seminaive program db] computes the model [Σ(D)] — same contract
    as {!Eval.seminaive}, which delegates here. [db] is not copied:
    the model shares every relation of [db] that no rule derives into
    ({!Database.extend}), and the rules append to the model's own
    relations of the intensional predicates (a copy of [db]'s, rows in
    order, when [db] has one). Those relations are the model returned:
    no {!Fact.t} is built unless [ranks] is given. [db]'s facts and
    their order are left unchanged; the engine only builds and drops
    column indexes on its relations, and the model's shared relations
    must stay read-only. Each predicate's facts in the model start with
    its [db] facts, in [db] order. Capacity: after the last round each
    relation the rules appended to is {!Flatrel.trim}med, so it holds
    exactly its rows, and the shared relations keep [db]'s capacity
    (exact for a {!Database.of_list} or {!Database.of_set} load). If [ranks] is given it must be fresh
    (empty) and is filled with the first-derivation round of every
    model fact (0 for database facts); each fact is recorded exactly
    once, with no membership pre-check. Every rule has one compiled
    join order ({!Plan.compile}), so the model, the ranks {e and} the
    model's iteration order depend only on [(program, db)].

    Every task counts into its rule's {!Profile.tally}; the [eval.*]
    counters are summed from the tallies after the fixpoint. The enable
    word is read once per call: when {!Profile.is_enabled} holds, the
    tallies also record per-atom and emission counts and wall time,
    and the run merges them, with its per-SCC rounds, into the
    accumulated profile (see {!Profile}). The engine is sequential, so
    the counts are identical across runs. *)
