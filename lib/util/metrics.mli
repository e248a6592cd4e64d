(** Pipeline-wide aggregates: counters, per-stage timers, power-of-two
    histograms, and a global registry with reset/snapshot and
    human/JSON renderers.

    Timers have no entry point here: a stage is timed only by a
    {!Tracing} span, whose two clock reads feed both the trace and the
    timer of the same name. This module and {!Tracing} share one enable
    word, so every disabled entry point of either is one atomic load —
    no clock read, no allocation. The metric names, units and JSON
    shape are specified in [docs/OBSERVABILITY.md], the contract for
    [whyprov --stats=json] and for the bench harness's stats rows.

    Recording is domain-safe: the batch enumerator ({!Provenance.Batch})
    runs per-tuple solver work on OCaml 5 domains, all of which record
    into the same registry. Counter updates are atomic (concurrent
    increments are never lost), and timer/histogram updates are
    serialized by a process-wide mutex. {!set_enabled}, {!reset} and
    snapshotting are meant to be driven from a single coordinating
    domain while no other domain is mid-span. *)

(** Minimal JSON values: exactly what snapshots need, plus a parser so
    that dumps can be validated and round-tripped without an external
    JSON dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  exception Parse_error of string

  val parse : string -> t
  (** Parses a JSON document. @raise Parse_error on malformed input. *)

  val equal : t -> t -> bool
  (** Structural equality (object field order is significant). *)

  val member : string -> t -> t option
  (** [member key (Obj fields)] looks up [key]; [None] on non-objects. *)

  val escape : string -> string
  (** JSON string-body escaping (no surrounding quotes). *)
end

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Turns the stats sink on or off (off by default). Toggling mid-span
    is not supported. *)

val is_enabled : unit -> bool
(** Guard for instrumentation whose mere preparation would allocate
    (e.g. building a per-predicate metric name). *)

val enable_word : int Atomic.t
(** Shared with {!Tracing}: bit {!stats_bit} is {!set_enabled}, bit
    {!trace_bit} is [Tracing.set_enabled]. Both go through {!set_bit}
    (compare-and-set); never write the word directly. *)

val stats_bit : int
val trace_bit : int
val set_bit : int -> bool -> unit

(** {1 Instruments}

    Creation is idempotent: the same name always returns the same
    instrument. A name denotes one kind forever; re-registering it as a
    different kind raises [Invalid_argument]. Timers are registered by
    the first span of their name. *)

type counter
type histogram

val counter : string -> counter
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val record_span : string -> total_us:float -> self_us:float -> unit
(** Accrues one closed {!Tracing} span, in whole microseconds, to the
    timer [name] (registered on first use). [self_us] excludes the
    direct children. @raise Invalid_argument if [name] is another kind. *)

val observe : histogram -> float -> unit
(** Buckets are powers of two: observation [v] lands in the first
    bucket whose inclusive upper bound [2^i] satisfies [v <= 2^i]
    (non-positive values land in bucket 0). *)

val observe_int : histogram -> int -> unit

val observe_span_us : histogram -> (unit -> 'a) -> 'a
(** [observe_span_us h f] runs [f] and records its wall-clock duration
    in microseconds into [h]. Exception-safe; exactly [f ()] when
    recording is disabled. Unlike a span this does not participate in
    span nesting — use it for histogram-valued durations such as
    [enum.solve_us]. *)

(** {1 Registry} *)

val reset : unit -> unit
(** Zeroes every registered instrument (registrations persist). *)

type snapshot_entry =
  | Counter_value of int
  | Timer_value of { count : int; total : float; self : float; max : float }
  | Histogram_value of {
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : (float * int) list;
    }

val snapshot : unit -> (string * snapshot_entry) list
(** Every instrument that recorded at least one event since the last
    {!reset}, sorted by name. Untouched instruments are omitted. *)

val get_counter : string -> int
(** Current value by name; [0] if absent or not a counter. *)

val get_timer_count : string -> int
val get_histogram_count : string -> int

(** {1 Renderers} *)

val schema_version : string
(** The value of the ["schema"] field of JSON snapshots. *)

val percentile_of_buckets : (float * int) list -> float -> float
(** [percentile_of_buckets buckets q] with [buckets] as in
    {!Histogram_value} (ascending [(inclusive upper bound, count)])
    and [q] in [\[0, 1\]]: the upper bound of the first bucket whose
    cumulative count reaches rank [ceil (q * total)] — an upper bound
    on the [q]-quantile, not an interpolation. [0.] on empty data.
    JSON snapshots embed [p50]/[p90]/[p99] computed this way. *)

val snapshot_to_json : unit -> Json.t
(** The snapshot as [{schema; counters; timers; histograms}] — see
    [docs/OBSERVABILITY.md] for the exact shape. *)

val to_json_string : unit -> string

val pp : Format.formatter -> unit -> unit
(** Human-readable listing, one instrument per line. *)

val to_string : unit -> string
