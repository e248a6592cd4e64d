(** Fact stores with per-predicate and per-position hash indexes.

    A [Database.t] is used both for extensional databases and for the
    materialized models produced by evaluation. Lookup by a pattern of
    bound argument positions is the primitive the join engine builds on. *)

type t

val create : ?size:int -> unit -> t
(** An empty database. [size] (default 1024) pre-sizes the fact table:
    the flat engine passes the exact model size it is about to insert,
    avoiding every rehash of the bulk build. *)

val of_list : Fact.t list -> t
(** Database of the listed facts (duplicates collapse). *)

val of_set : Fact.Set.t -> t
(** Database of the set's facts. *)

val add : t -> Fact.t -> bool
(** [add db f] inserts [f]; returns [true] iff [f] was not already present. *)

val add_new : t -> Fact.t -> unit
(** [add_new db f] inserts [f] {e without} the membership check of
    {!add}. The caller must guarantee [not (mem db f)] — the flat
    engine's final materialization does, because its relations deduplicate rows before
    they reach the database. Inserting a duplicate corrupts [size] and
    the per-predicate stores. *)

val mem : t -> Fact.t -> bool
(** Membership. *)

val size : t -> int
(** Total number of facts. *)

val preds : t -> Symbol.t list
(** Predicates with at least one fact, sorted. *)

val count_pred : t -> Symbol.t -> int
(** Number of facts of one predicate. *)

val iter : (Fact.t -> unit) -> t -> unit
(** Iterates predicates in symbol order, each predicate's facts in
    insertion order. This order is observable downstream (encodings,
    closures), so it is part of the interface. *)

val iter_pred : t -> Symbol.t -> (Fact.t -> unit) -> unit
(** One predicate's facts, in insertion order. *)

val estimate : t -> Symbol.t -> (int * Symbol.t) list -> int
(** Upper bound on the number of facts [iter_matching] would visit:
    the smallest index bucket among the bound positions, or the
    predicate's fact count when nothing is bound. Used by the greedy
    join-ordering heuristic. *)

val iter_matching : t -> Symbol.t -> (int * Symbol.t) list -> (Fact.t -> unit) -> unit
(** [iter_matching db p bound f] calls [f] on every fact of predicate [p]
    whose argument at position [i] equals [c] for each [(i, c)] in
    [bound]. Uses a per-position hash index on the most selective bound
    position and filters on the rest. *)

val to_list : t -> Fact.t list
(** All facts, in {e reverse} {!iter} order. *)

val to_set : t -> Fact.Set.t
(** All facts as a set. *)

val domain : t -> Symbol.t list
(** Active domain: all constants occurring in the database, sorted. *)

val copy : t -> t
(** An independent database with the same facts. *)

val pp : Format.formatter -> t -> unit
(** One fact per line, sorted. *)
