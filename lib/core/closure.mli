(** Graph of rule instances and downward closure (Definition 42 of the
    paper, after Elhalawati, Krötzsch & Mennicke 2022).

    The downward closure of a fact [α] w.r.t. [D] and [Σ] is the
    sub-hypergraph of the graph of rule instances containing [α] and
    everything reachable from it. It "contains" every compressed DAG of
    [α], and is the structure the Boolean encoding searches in.

    The paper computes it by evaluating a rewritten query [Q↓] over a
    rewritten database [D↓] with DLV; here we obtain exactly the same
    hyperedges directly: a backward breadth-first traversal from [α]
    that asks the engine for all rule instances deriving each reached
    intensional fact within the materialized model. *)

open Datalog

type hyperedge = {
  head : Fact.t;
  head_id : int;         (** [node_id head] *)
  rule : Rule.t;
  body : Fact.t list;    (** ground body, in body-atom order *)
  targets : Fact.t list; (** the set [T]: deduplicated, sorted body facts *)
  target_ids : int array; (** the ids of [targets], ascending *)
}

type t

val build : Program.t -> Database.t -> Fact.t -> t
(** [build program db root] materializes the model and computes the
    downward closure of [root]. If [root ∉ Σ(D)], the closure contains
    the root node only and no hyperedges. The materialization honours
    {!Datalog.Profile} when enabled — [whyprov explain --profile]
    reaches the profiler through this call.
    @raise Invalid_argument naming the predicate when [db] holds a fact
    of an intensional predicate of [program], as the analyzer's WP004
    does: such a fact would be both a leaf and a derived node. *)

val build_with_model : Program.t -> model:Database.t -> Database.t -> Fact.t -> t
(** Same, reusing an already materialized model; [db] is checked as in
    {!build}. *)

(** {2 Shared grounded-instance cache}

    Batch enumeration ({!Batch}) builds one closure per answer tuple of
    the same materialized model. Tuples of one query share most of
    their downward closures, so the backward rule-instance extraction
    ([Eval.derivations] — a join per rule defining the reached fact) is
    memoized in a cache shared across the builds. A closure built
    through the cache is identical to one built standalone against the
    same model. The cache is {e not} domain-safe; batch enumeration
    builds every closure on the coordinating domain and fans out only
    the encode/enumerate work. *)

type instance_cache

val instance_cache : Program.t -> model:Database.t -> instance_cache
(** A fresh cache for the given program and materialized model. *)

val build_cached : instance_cache -> Database.t -> Fact.t -> t
(** Like {!build_with_model} (against the cache's model), memoizing the
    rule instances of every reached fact in the cache. [db] is checked
    as in {!build}: {!instance_cache} takes no database, so this is
    where a batch's database meets the check. *)

val cache_model : instance_cache -> Database.t
(** The materialized model the cache was created with. *)

val cache_hits : instance_cache -> int
val cache_misses : instance_cache -> int
(** Cumulative memoization statistics over all builds through this
    cache (also exported as the [closure.cache_hits] /
    [closure.cache_misses] metrics). *)

val root : t -> Fact.t
val program : t -> Program.t

(** {2 Node numbering and iteration order}

    The closure is a numbered hypergraph. Its nodes are kept sorted by
    [Fact.compare], and a node's id is its index in {!nodes}; the id is
    also the variable of [x_α] in {!Encode}. A hyperedge carries the ids
    of its head and of its target set, so consumers never look facts up.

    {!iter_hyperedges} visits heads in ascending id and, for each head,
    its rule instances in {!Datalog.Eval.derivations} order. The
    encoder allocates its edge and hyperedge variables by this order
    (walking it from the end), so it reaches the order members are
    enumerated in. Like {!Datalog.Database.iter}'s order, it is part of
    the interface: it depends only on the program, the model and the
    root, not on whether the build went through an {!instance_cache}. *)

val nodes : t -> Fact.t array
(** All facts reachable from the root (including the root), sorted;
    index [i] holds the node with id [i]. Callers must not mutate the
    array. *)

val node_id : t -> Fact.t -> int
(** The id of a node. @raise Not_found if the fact is not a node. *)

val num_nodes : t -> int
val num_hyperedges : t -> int
(** Both O(1). *)

val hyperedges_of : t -> Fact.t -> hyperedge array
(** Hyperedges whose head is the given fact, in
    {!Datalog.Eval.derivations} order (empty for database facts and
    non-nodes). Callers must not mutate the array. *)

val iter_hyperedges : t -> (hyperedge -> unit) -> unit
(** All hyperedges, heads in ascending id, each head's in
    {!hyperedges_of} order. *)

val db_ids : t -> int array
(** The ids of {!db_facts}, ascending. Callers must not mutate it. *)

val db_facts : t -> Fact.t list
(** The set [S]: database facts occurring in the closure, sorted. These
    are the only facts that can appear in a member of [why_UN]. *)

val derivable : t -> bool
(** [true] iff the root is actually derivable ([root ∈ Σ(D)]). *)

val graph_acyclic : t -> bool
(** [true] iff the candidate edge set of the closure — one edge
    [head → target] per hyperedge, self-loop hyperedges excluded, i.e.
    exactly the edges the encoder materializes as [z] variables — forms
    a DAG. Then every model of the encoding is acyclic by construction
    and φ_acyclic can be dropped. Always true for non-recursive
    programs; may also hold for recursive programs on acyclic data
    (rank-bounded closures). *)

val pp_stats : Format.formatter -> t -> unit
