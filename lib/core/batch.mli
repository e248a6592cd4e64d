(** Batched multi-tuple why-provenance enumeration.

    The paper's experiments (Section 6) enumerate [why_UN(t̄, D, Q)]
    one answer tuple at a time, yet every tuple of one query shares the
    materialized model and most of the downward closure. This subsystem
    amortizes that shared work across a whole answer set:

    - the model is materialized {e once} (with derivation ranks,
      Proposition 28);
    - per-tuple downward closures are built against the shared
      materialization, memoizing grounded rule instances in a shared
      {!Closure.instance_cache};
    - the per-tuple encode + enumerate work — where virtually all of
      the solver time goes — is fanned out over a pool of OCaml 5
      domains, each tuple's formula living in its own solver instance.

    Results come back in input-tuple order, and each tuple's member
    list is byte-identical to what the sequential
    {!Enumerate.create}-per-tuple loop produces, independently of
    [jobs]: the closure built through the cache equals the standalone
    closure, and each tuple's solver runs the same deterministic search
    whichever domain hosts it. *)

open Datalog

type spec =
  | Facts of Fact.t list
      (** Explicit answer facts, enumerated in the given order. *)
  | All_answers of Symbol.t
      (** Every model fact over the given answer predicate, sorted. *)

type status =
  | Complete  (** enumeration exhausted: the member list is the whole [why_UN] *)
  | Limit_reached  (** per-tuple member cap hit *)
  | Budget_exhausted  (** the per-tuple conflict budget gave up *)
  | Too_large  (** vertex elimination exceeded [max_fill] ({!Encode.Too_large}) *)
  | Not_derivable  (** the fact is not in the materialized model *)

type result = {
  fact : Fact.t;
  members : Fact.Set.t list;
      (** in production order *)
  status : status;
  rank : int option;
      (** first-derivation round = min-dag-depth (Proposition 28);
          [None] when not derivable or for database facts of [Facts]. *)
  task_s : float;  (** wall seconds of this tuple's encode + enumerate *)
}

type outcome = {
  results : result list;  (** one per input tuple, in input order *)
  jobs : int;  (** worker domains actually used *)
  cache_hits : int;
  cache_misses : int;  (** shared instance-cache totals *)
  materialize_s : float;
  closures_s : float;
  fanout_s : float;  (** wall seconds of the parallel encode/enumerate phase *)
}

val run :
  ?jobs:int ->
  ?limit:int ->
  ?conflict_budget:int ->
  ?acyclicity:Encode.acyclicity ->
  ?max_fill:int ->
  ?preprocess:bool ->
  Program.t ->
  Database.t ->
  spec ->
  outcome
(** [run program db spec] enumerates [why_UN] for every requested
    tuple. [jobs] (default 1) is the number of worker domains; with 1
    everything runs on the calling domain. [limit] caps the members
    per tuple (default: unlimited). [conflict_budget] bounds each
    solver descent of a tuple, turning budget overruns into
    [Budget_exhausted] instead of unbounded solving. [acyclicity],
    [max_fill] and [preprocess] are passed to {!Encode.make}. The
    model's iteration order depends only on [(program, db)]
    ({!Datalog.Eval.seminaive}), so every tuple's members come out in
    the same order on every run, whatever [jobs] is. The
    materialization honours {!Datalog.Profile} when enabled —
    [whyprov batch --profile] reaches the profiler through this call. *)

val pp_status : Format.formatter -> status -> unit
