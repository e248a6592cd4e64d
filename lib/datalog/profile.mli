(** Rule-level execution profiler for the flat engine.

    The metrics registry ({!Util.Metrics}) answers "how much work did
    the fixpoint do"; this module answers "{e which rule} did it".
    Every fixpoint counts into one {!tally} per rule: its firings, the
    tuples it matched and its index probe/hit and scan counts, summed
    into the [eval.*] counters afterwards. While profiling is enabled
    the tallies also record wall time, the bindings that reached and
    the tuples matched by each body atom, and the head rows emitted and
    accepted, and every semi-naive round contributes the per-SCC delta
    sizes; the run then merges into the accumulated profile.

    Profiling is bit {!Util.Metrics.profile_bit} of the enable word the
    stats and trace sinks share, off by default. The engine reads the
    word once per fixpoint; disabled, the join closures are not wrapped
    and nothing is timed. The engine is sequential and counts straight
    into the tallies in task order, so every count in a profile is
    identical across runs (wall times are the one exception — they are
    excluded from [to_json ~times:false], the form the determinism
    tests compare).

    Reconciliation contract (enforced by [test/test_profile.ml]): the
    per-rule [firings], [derived] and [tuples] sum exactly to the
    global [eval.rule_firings], [eval.facts_derived] and
    [eval.tuples_matched] counters.

    Schemas and the reading guide are in
    [docs/OBSERVABILITY.md] ("Rule-level profiles"). *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Sets {!Util.Metrics.profile_bit}. Toggling while a fixpoint is
    running is not supported: the engine reads the word once per
    {!Eval.seminaive} call. *)

val is_enabled : unit -> bool

val reset : unit -> unit
(** Drops every accumulated rule, SCC and round record. *)

(** {1 Tallies} *)

type tally = {
  r_rule : Rule.t;
  r_order : int array;
      (** the executed full-evaluation join order, as body positions *)
  mutable r_firings : int;  (** tasks run (one per round per delta position) *)
  mutable r_secs : float;  (** summed task wall time; profiling only *)
  mutable r_tuples : int;  (** total tuples matched across all atoms *)
  mutable r_emitted : int;
      (** head emissions before deduplication; profiling only *)
  mutable r_derived : int;
      (** head rows that entered the model; profiling only *)
  mutable r_probes : int;
  mutable r_hits : int;
  mutable r_scans : int;
  r_in : int array;
      (** bindings that reached each body position; profiling only *)
  r_out : int array;
      (** tuples each body position matched; profiling only *)
}
(** One rule's counts, for one fixpoint or accumulated over many. *)

val tally : Plan.t -> tally
(** [tally plan] is a zeroed tally for the rule of [plan], a
    full-evaluation plan, whose join order it records. *)

(** {1 Engine-side collection}

    Used by {!Engine.seminaive} while profiling. A {!run} belongs to
    one fixpoint, on one domain. *)

type run

val run_begin : Symbol.t list list -> run
(** [run_begin sccs] starts collection for one fixpoint, with [sccs]
    the predicate components of {!Engine.strata}. *)

val record_round : run -> (Symbol.t, int * int) Hashtbl.t -> unit
(** [record_round run ranges] closes one round; [ranges] maps each
    predicate that grew to the row range [(lo, hi)] the round appended. *)

val run_end : run -> tally array -> unit
(** Merges the run and its tallies into the accumulated profile
    (thread-safe). *)

(** {1 Snapshots} *)

type scc = {
  c_preds : Symbol.t list;  (** the component, sorted *)
  mutable c_rounds : int;  (** rounds in which the component derived facts *)
  mutable c_derived : int;  (** facts derived into the component *)
}

type t = {
  runs : int;
  rounds : int;
  rules : tally list;  (** by rule id (then text, across programs) *)
  sccs : scc list;  (** topological order of first sighting *)
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
