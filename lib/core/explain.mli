(** High-level facade over the why-provenance pipeline, used by the CLI
    and the examples: evaluate a Datalog query, list answers, and
    explain an answer tuple. *)

open Datalog

type query = {
  program : Program.t;
  answer_pred : Symbol.t;
}

val query : Program.t -> string -> query
(** [query program pred] names the answer predicate.
    @raise Invalid_argument if [pred] is not an intensional predicate of
    the program. *)

val answers : query -> Database.t -> Fact.t list
(** All answer facts [R(t̄)], sorted. *)

val goal : query -> string list -> Fact.t
(** [goal q tuple] builds the fact [R(t̄)] from constant names.
    @raise Invalid_argument if [tuple] does not have [R]'s arity. *)

type explanation = {
  members : Fact.Set.t list; (** members of why_UN, in production order *)
  total : [ `Exactly of int | `At_least of int ];
      (** [`Exactly n] when the enumeration was exhausted. *)
}

val explain : ?limit:int -> query -> Database.t -> Fact.t -> explanation
(** Enumerates [why_UN(t̄, D, Q)] up to [limit] members (default 100). *)

val explain_of_closure : ?limit:int -> Closure.t -> explanation
(** Same, reusing a downward closure built by the caller (the CLI uses
    this to check derivability and enumerate off one materialization). *)

val why_provenance :
  variant:[ `Any | `Unambiguous | `Non_recursive | `Minimal_depth ] ->
  query ->
  Database.t ->
  Fact.t ->
  Fact.Set.t ->
  bool
(** Membership in the chosen why-provenance variant: dispatches to the
    matching {!Membership} procedure. *)

val proof_tree : query -> Database.t -> Fact.t -> Proof_tree.t option
(** A minimal-depth proof tree witnessing the answer, if derivable:
    {!Trace.proof_tree} over {!Trace.record}, which descends by
    immediate-consequence rank (Prop. 28), one rule instance per fact. *)

val pp_explanation : Format.formatter -> explanation -> unit
