(** Fact stores: one flat relation ({!Flatrel}) per (predicate, arity).

    A [Database.t] is used both for extensional databases and for the
    materialized models produced by evaluation. The flat engine
    evaluates on the database's own relations ({!extend},
    {!relation}) and returns them as the model: a relation no rule
    derives into is the database's, shared and not copied, so the
    model stores each fact once, as int rows, and the column indexes
    the fixpoint built serve the backward joins of {!iter_matching}.
    A shared relation is read-only: only column indexes are built or
    dropped on it, never rows added. Facts are built as {!Fact.t}
    values only when they are visited. Lookup by a pattern of bound
    argument positions is the primitive the structural joins of
    {!Eval} build on. *)

type t

val create : unit -> t
(** An empty database. *)

val of_list : Fact.t list -> t
(** Database of the listed facts (duplicates collapse). *)

val of_set : Fact.Set.t -> t
(** Database of the set's facts. *)

val add : t -> Fact.t -> bool
(** [add db f] inserts [f]; returns [true] iff [f] was not already present. *)

val relation : t -> Symbol.t -> arity:int -> Flatrel.t
(** [relation db p ~arity] is the relation holding the facts of [p] of
    that arity, created empty if absent. Rows added to it are facts of
    [db]: the flat engine appends the model's derived rows here. *)

val mem : t -> Fact.t -> bool
(** Membership: one open-addressing row lookup. *)

val size : t -> int
(** Total number of facts. *)

val preds : t -> Symbol.t list
(** Predicates with at least one fact, sorted. *)

val count_pred : t -> Symbol.t -> int
(** Number of facts of one predicate, over all its arities. *)

val iter : (Fact.t -> unit) -> t -> unit
(** Iterates predicates in symbol order (a predicate's arities in
    increasing order), each relation's facts in insertion order. This
    order is observable downstream (encodings, closures), so it is part
    of the interface. *)

val iter_pred : t -> Symbol.t -> (Fact.t -> unit) -> unit
(** One predicate's facts, in {!iter} order. *)

val estimate : t -> Symbol.t -> arity:int -> (int * Symbol.t) list -> int
(** Upper bound on the number of facts [iter_matching] would visit:
    the smallest index bucket among the bound positions, or the
    relation's fact count when nothing is bound. When every position
    is bound it is exact (0 or 1), from one row-table lookup. Used by
    the greedy join-ordering heuristic. *)

val iter_matching :
  t -> Symbol.t -> arity:int -> (int * Symbol.t) list -> (Fact.t -> unit) -> unit
(** [iter_matching db p ~arity bound f] calls [f], in insertion order,
    on every fact of predicate [p] and that arity whose argument at
    position [i] equals [c] for each [(i, c)] in [bound]. When [bound]
    names every position once, it is one lookup in the relation's row
    table ({!Flatrel.find}) and builds no column index. Otherwise it
    probes the relation's column index (built on first use) on the
    most selective bound position and filters on the rest. *)

val to_list : t -> Fact.t list
(** All facts, in {e reverse} {!iter} order. *)

val to_set : t -> Fact.Set.t
(** All facts as a set. *)

val domain : t -> Symbol.t list
(** Active domain: all constants occurring in the database, sorted. *)

val copy : t -> t
(** An independent database with the same facts, each relation's rows
    in the same order. *)

val extend : t -> writable:(Symbol.t * int) list -> t
(** [extend db ~writable] is a database holding [db]'s own relations,
    shared and not copied, except the (predicate, arity) keys in
    [writable]: each of those is a copy of [db]'s relation, rows in
    order, or a fresh empty one. Rows added to a writable relation are
    facts of the result only; the shared ones must be left read-only.
    A relation {!relation} creates in the result later is its own.
    The flat engine builds its model this way, with the rule heads
    writable. *)

val pp : Format.formatter -> t -> unit
(** One fact per line, sorted. *)
