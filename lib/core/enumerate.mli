(** SAT-based incremental enumeration of [why_UN(t̄, D, Q)]
    (Sections 5.1–5.2 of the paper).

    The pipeline: materialize the model, build the downward closure of
    [R(t̄)], encode it as a CNF formula, then repeatedly ask the solver
    for a model and add a blocking clause over the database facts of the
    closure, so each member of the why-provenance is produced exactly
    once. *)

open Datalog

type t

val create :
  ?acyclicity:Encode.acyclicity ->
  ?max_fill:int ->
  ?smallest_first:bool ->
  ?preprocess:bool ->
  Program.t ->
  Database.t ->
  Fact.t ->
  t
(** [create program db fact] prepares the enumeration of
    [why_UN] members for [fact] (e.g. [R(t̄)]). Materializes the model
    and builds the formula eagerly. With [~smallest_first:true] a
    totalizer over the database-fact variables is added and members are
    produced in non-decreasing support size (O(|S|²) extra clauses —
    meant for closures with up to a few thousand database facts).
    [?preprocess] is forwarded to {!Encode.make} (default on). *)

val of_closure :
  ?acyclicity:Encode.acyclicity ->
  ?max_fill:int ->
  ?smallest_first:bool ->
  ?preprocess:bool ->
  Closure.t ->
  t
(** Same, reusing a downward closure built by the caller (used by the
    benchmark harness to time the phases separately). *)

val of_parts : ?smallest_first:bool -> Closure.t -> Encode.t -> t
(** Wraps an already-built encoding (the harness times closure and
    formula construction separately). The encoding must come from the
    given closure. *)

val next : t -> Fact.Set.t option
(** The next member of the why-provenance, or [None] when exhausted.
    Members are produced without repetition, in solver order. *)

val next_with_witness : t -> (Datalog.Fact.Set.t * Proof_dag.t) option
(** Like {!next} (same members in the same order, smallest-first
    included), additionally reconstructing the compressed proof DAG
    (Lemma 44) witnessing the member; unravelling it gives an
    unambiguous proof tree with exactly that support. *)

val next_limited :
  conflict_budget:int -> t -> [ `Member of Datalog.Fact.Set.t | `Exhausted | `Gave_up ]
(** Like {!next}, but gives up (without losing work) if the solver
    exceeds the conflict budget — the mechanism behind the benchmark
    harness's per-tuple timeouts. *)

val to_list : ?limit:int -> t -> Fact.Set.t list
(** Drains the enumeration (up to [limit] members if given). *)

val count : ?limit:int -> t -> int

val closure : t -> Closure.t
val encoding : t -> Encode.t

val member : t -> Fact.Set.t -> bool
(** Decision procedure for Why-Provenance_UN[Q]: does the candidate
    belong to [why_UN(t̄, D, Q)]? Implemented by solving under
    assumptions that fix [db(τ)] to the candidate; does not interfere
    with the enumeration state (blocking clauses added by {!next} are
    respected, so call it on a fresh [t] or account for that). *)
