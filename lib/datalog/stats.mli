(** Per-predicate cardinality statistics.

    A [Stats.t] maps predicates to an estimated (upper-bound) row count
    and per-column distinct-value counts. {!of_database} computes the
    exact figures for an extensional database; the abstract-interpretation
    layer ([Whyprov_analysis.Absint]) extends them to intensional
    predicates bottom-up, with widening on recursive SCCs, for the
    [whyprov analyze] report (docs/ABSINT.md). {!Profile.audit} holds
    those estimates against {!of_database} of the materialized model.
    Statistics are a report only: no evaluation path reads them. *)

type pred = {
  rows : float;  (** estimated number of rows (exact for EDB stores) *)
  distinct : float array;
      (** per-column distinct-value estimate; length = predicate arity *)
}

type t

val create : unit -> t
(** An empty statistics table. *)

val set : t -> Symbol.t -> pred -> unit
(** [set t p stats] records (or replaces) the statistics of [p]. *)

val find : t -> Symbol.t -> pred option
(** Statistics of one predicate, if recorded. *)

val rows : t -> Symbol.t -> float option
(** Row-count estimate of one predicate, if recorded. *)

val fold : (Symbol.t -> pred -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over recorded predicates in symbol order. *)

val of_database : Database.t -> t
(** Exact row and per-column distinct counts of every stored predicate.
    One scan per predicate; no indexes are built. *)

val copy : t -> t
(** An independent table with the same entries. *)

val pp : Format.formatter -> t -> unit
(** One line per predicate, in symbol order. *)
