(** Spans, the one instrumentation primitive, and structured event
    tracing: begin/end spans, instant events and counter samples
    recorded into per-domain ring buffers, exported as Chrome
    trace-event JSON ([chrome://tracing] / Perfetto) and as a
    human-readable JSONL stream.

    {b One span, two sinks.} A span is the only way pipeline code times
    a stage. Its two clock reads (whole microseconds) feed the trace's
    begin/end pair when tracing is on ({!set_enabled}), and the
    {!Metrics} timer of the same name when stats are on: a timer's
    total is exactly the sum of its pairs' end−begin differences, and
    its self time excludes the spans nested directly in it on the same
    domain. Instants and counter samples go to the trace only. The
    vocabulary and the JSON schemas are in [docs/OBSERVABILITY.md].

    {b Cost.} Both sinks are off by default and share one enable word
    with {!Metrics}, so every entry point with both off is a single
    atomic load (the [tracing:*] and [metrics:*] kernels in
    [bench/micro.ml]). An enabled span does one domain-local lookup; a
    trace event is one cell write into the recording domain's own ring
    buffer — no locks, no I/O.

    {b Domain safety.} Each domain keeps its open spans and its buffer
    in one value it owns (the buffer is created by its first trace
    event and registered once under a mutex), so a worker's spans never
    nest or interleave with another domain's. {!set_enabled}, {!reset}
    and the export functions must be driven from a coordinating domain
    while no other domain is recording (the batch pool joins its
    workers before control returns, so flushing at process exit is
    safe).

    {b Overflow.} Buffers hold {!set_capacity} events per domain
    (default 2^18). A full buffer wraps, overwriting the oldest events
    and counting them in {!dropped_events} — the tail of a long run is
    what a stalling-solve investigation needs. The exporters re-balance
    begin/end pairs (orphaned ends dropped, unclosed begins closed at
    the buffer's last timestamp), so the output is well-formed even
    after wrap-around. *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Turns the trace sink on or off; off by default. Toggling while
    worker domains are mid-span leaves their open spans to be closed
    synthetically by the exporters. *)

val is_enabled : unit -> bool
(** Guard for call sites whose argument preparation would allocate
    (e.g. rendering a fact into a span label). *)

val set_capacity : int -> unit
(** Per-domain ring capacity (events). Applies to buffers created
    after the call; call before {!set_enabled}. Clamped to [>= 16]. *)

val reset : unit -> unit
(** Discards every recorded event and zeroes the dropped count.
    Buffer registrations persist. *)

(** {1 Recording}

    [args] are attached to the event verbatim ([Metrics.Json] values,
    rendered into the Chrome event's ["args"] object). Building args
    allocates even when disabled — guard expensive ones with
    {!is_enabled}. *)

val with_span : ?args:(string * Metrics.Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] as a span [name] on the calling domain.
    Exception-safe: a raising [f] still closes the span. With both
    sinks off this is exactly [f ()]. [args] go to the trace only.
    @raise Invalid_argument with stats on, if [name] is a {!Metrics}
    counter or histogram. *)

val begin_span : ?args:(string * Metrics.Json.t) list -> string -> unit

val end_span : string -> unit
(** Closes the most recent open span of the calling domain (Chrome
    "E" semantics; the name is informational). *)

val instant : ?args:(string * Metrics.Json.t) list -> string -> unit
(** A point-in-time marker (Chrome phase ["i"], thread scope). *)

val counter : string -> (string * float) list -> unit
(** [counter name series] samples one or more numeric series under one
    counter track (Chrome phase ["C"]), e.g.
    [counter "sat.progress" [("conflicts", 1.2e4); ("lbd_avg", 3.1)]]. *)

(** {1 Inspection} *)

type phase =
  | Begin
  | End
  | Instant
  | Counter

type event = {
  ts_us : float;  (** microseconds since the trace epoch (process start) *)
  tid : int;      (** OCaml domain id of the recording domain *)
  phase : phase;
  name : string;
  args : (string * Metrics.Json.t) list;
}

val events : unit -> event list
(** Every buffered event, merged across domains, sorted by timestamp
    (ties keep per-domain order). Timestamps are per-domain monotone. *)

val dropped_events : unit -> int
(** Events overwritten by ring wrap-around since the last {!reset}. *)

(** {1 Export}

    Schemas in [docs/OBSERVABILITY.md] ("Structured event tracing"). *)

val to_chrome_json : unit -> Metrics.Json.t
(** The Chrome trace-event document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one
    metadata event naming the process and each domain's thread, and
    begin/end pairs re-balanced per [tid]. *)

val to_chrome_string : unit -> string

val write_chrome : out_channel -> unit

val write_jsonl : out_channel -> unit
(** One event per line:
    [{"ts_us":…,"tid":…,"ph":"B|E|i|C","name":…,"args":{…}}] in global
    timestamp order — greppable, diffable, no viewer needed. *)
