(** Rule-level execution profiler for the flat engine.

    The metrics registry ({!Util.Metrics}) answers "how much work did
    the fixpoint do"; this module answers "{e which rule} did it".
    While enabled, every (rule, delta-position) task the engine runs
    contributes — keyed by its compiled rule id into dense arrays — its
    wall time, its firing, the tuples each body atom matched, the head
    rows it emitted and how many survived deduplication, and its index
    probe/hit and scan counts; every semi-naive round contributes the
    per-SCC delta sizes, so the profile can report rounds and derived
    facts per strongly connected component.

    The discipline matches {!Util.Tracing}: recording is off by
    default, and every instrumentation site in the engine costs one
    atomic-flag check (checked {e once per fixpoint}, not per tuple)
    until {!set_enabled} is called — the [profile:*] micro-benchmarks
    in [bench/micro.ml] hold the disabled overhead under 2%. Collection
    is aggregated {e deterministically}: each engine task fills its own
    buffer, and the engine folds them in task order after each round,
    so every count in a profile is identical across runs (wall times
    are the one exception — they are excluded from
    [to_json ~times:false], the form the determinism tests compare).

    Reconciliation contract (enforced by [test/test_profile.ml] on the
    five paper workloads): the per-rule [firings] sum to the global
    [eval.rule_firings] counter and the per-rule [derived] sum to
    [eval.facts_derived], exactly.

    Schemas and the reading guide are in
    [docs/OBSERVABILITY.md] ("Rule-level profiles"). *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Off by default. Toggling while a fixpoint is running is not
    supported: the engine samples the flag once per {!Eval.seminaive}
    call. *)

val is_enabled : unit -> bool

val reset : unit -> unit
(** Drops every accumulated rule, SCC and round record. *)

(** {1 Engine-side collection}

    Used by {!Engine.seminaive} only; exposed so the engine can stay
    free of profiling bookkeeping when disabled. A {!run} and its
    {!task} buffers belong to one fixpoint, on one domain. *)

type task = {
  out : int array;
      (** tuples matched per plan instruction (join-order position) *)
  mutable new_rows : int;
      (** head rows accepted into the model (post-deduplication) *)
  mutable secs : float;  (** wall time spent running the task *)
}

val task_create : int -> task
(** [task_create n] is a zeroed buffer for a plan of [n] instructions. *)

val now_s : unit -> float
(** Wall clock, seconds. *)

type run

val run_begin : Program.t -> Symbol.t list list -> run
(** [run_begin program sccs] starts collection for one fixpoint, with
    [sccs] the predicate components of {!Engine.strata}. Dense per-rule
    arrays are keyed by {!Rule.id} (contiguous under {!Program.make}). *)

val record_task :
  run -> Plan.t -> task -> probes:int -> hits:int -> scans:int -> unit
(** Folds one finished task into the run — called in task order at the
    end of each round. *)

val record_round : run -> (Symbol.t * int) list -> unit
(** [record_round run deltas] closes one round; [deltas] are the
    per-predicate delta sizes of the round (any order — the
    per-SCC aggregation is order-independent). *)

val run_end : run -> unit
(** Folds the run into the global accumulated profile (thread-safe). *)

(** {1 Snapshots} *)

type atom_stat = {
  a_pos : int;  (** position of the atom in the rule body *)
  a_pred : Symbol.t;
  a_in : int;  (** bindings that reached this atom, all tasks *)
  a_out : int;  (** tuples it matched, all tasks *)
}

type rule_stat = {
  r_id : int;
  r_head : Symbol.t;
  r_text : string;  (** the rule, pretty-printed *)
  r_order : int array;
      (** the executed full-evaluation join order, as body positions *)
  r_firings : int;  (** tasks run (one per round per delta position) *)
  r_secs : float;  (** summed task wall time *)
  r_tuples : int;  (** total tuples matched across all atoms *)
  r_emitted : int;  (** head emissions before deduplication *)
  r_derived : int;  (** head rows that entered the model *)
  r_probes : int;
  r_hits : int;
  r_scans : int;
  r_atoms : atom_stat array;  (** indexed by body position *)
}

type scc_stat = {
  c_preds : Symbol.t list;  (** the component, sorted *)
  c_rounds : int;  (** rounds in which the component derived facts *)
  c_derived : int;  (** facts derived into the component *)
}

type t = {
  runs : int;
  rounds : int;
  rules : rule_stat list;  (** by rule id (then text, across programs) *)
  sccs : scc_stat list;  (** topological order of first sighting *)
}

val snapshot : unit -> t
(** A copy of the accumulated profile; {!reset} does not affect
    snapshots already taken. *)

val schema_version : string
(** ["whyprov.profile/3"], the ["schema"] field of {!to_json}. *)

val to_json : ?times:bool -> t -> Util.Metrics.Json.t
(** The versioned JSON document (docs/OBSERVABILITY.md). With
    [~times:false] the [time_s] fields are omitted — every remaining
    field is deterministic across runs. *)

val pp : ?top:int -> Format.formatter -> t -> unit
(** The human report: the [top] (default 5) hottest rules by wall
    time, then the SCC → rule → atom tree. *)
