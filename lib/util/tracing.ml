(* Spans, the one way to time a stage, and per-domain ring buffers of
   trace events, flushed to Chrome trace-event JSON or JSONL. A closed
   span also feeds the Metrics timer of its name. See tracing.mli for
   the contract and docs/OBSERVABILITY.md for the schemas. *)

module Json = Metrics.Json

type phase =
  | Begin
  | End
  | Instant
  | Counter

type event = {
  ts_us : float;
  tid : int;
  phase : phase;
  name : string;
  args : (string * Json.t) list;
}

(* A span frame: its begin timestamp and the inclusive time of its
   direct children so far, for the timer's self time. *)
type frame = {
  f_name : string;
  f_start : float;
  mutable f_children : float;
}

(* One domain's open spans and ring buffer, touched only by that
   domain; the registry below lets the coordinating domain read the
   rings once workers are joined. The ring is allocated by the
   domain's first trace event, so stats-only spans cost no buffer.
   [head] is the logical index of the oldest live event, [len] the
   live count. *)
type state = {
  b_tid : int;
  mutable stack : frame list;
  mutable ring : event array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
  mutable last_ts : float;
}

let dummy_event = { ts_us = 0.; tid = 0; phase = Instant; name = ""; args = [] }

let set_enabled on = Metrics.set_bit Metrics.trace_bit on
let is_enabled () = Atomic.get Metrics.enable_word land Metrics.trace_bit <> 0

let capacity = Atomic.make (1 lsl 18)
let set_capacity n = Atomic.set capacity (max 16 n)

(* Timestamps are whole microseconds since module init, so timer
   totals summed from E−B differences are exact. *)
let epoch = Unix.gettimeofday ()

let registry_lock = Mutex.create ()
let registry : state list ref = ref []

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { b_tid = (Domain.self () :> int); stack = []; ring = [||]; head = 0; len = 0;
        dropped = 0; last_ts = 0. })

(* Clamped to the domain's last timestamp: per-domain streams are
   non-decreasing even if the wall clock steps backwards. *)
let now st =
  let ts = Float.round ((Unix.gettimeofday () -. epoch) *. 1e6) in
  let ts = if ts < st.last_ts then st.last_ts else ts in
  st.last_ts <- ts;
  ts

(* Appends an event stamped now and returns the stamp. The ring is
   allocated before the clock is read, so no span pays for it. *)
let push st phase name args =
  if Array.length st.ring = 0 then begin
    st.ring <- Array.make (Atomic.get capacity) dummy_event;
    Mutex.lock registry_lock;
    registry := st :: !registry;
    Mutex.unlock registry_lock
  end;
  let ts = now st in
  let ev = { ts_us = ts; tid = st.b_tid; phase; name; args } in
  let cap = Array.length st.ring in
  if st.len < cap then begin
    st.ring.((st.head + st.len) mod cap) <- ev;
    st.len <- st.len + 1
  end
  else begin
    (* Wrap: overwrite the oldest event so the tail of a long run is
       retained. The exporters re-balance B/E pairs afterwards. *)
    st.ring.(st.head) <- ev;
    st.head <- (st.head + 1) mod cap;
    st.dropped <- st.dropped + 1
  end;
  ts

(* The two halves of a span. Both sinks read the same two timestamps:
   the trace gets them as its B/E pair, the timer their difference. *)
let open_span st word args name =
  let ts =
    if word land Metrics.trace_bit <> 0 then push st Begin name args else now st
  in
  let fr = { f_name = name; f_start = ts; f_children = 0. } in
  st.stack <- fr :: st.stack;
  fr

(* Pops down to [fr]: a nested span that escaped (toggled mid-flight?)
   must not become the parent of later spans. *)
let rec pop fr = function top :: rest -> if top == fr then rest else pop fr rest | [] -> []

let close_span st fr =
  st.stack <- pop fr st.stack;
  let word = Atomic.get Metrics.enable_word in
  if word <> 0 then begin
    let ts =
      if word land Metrics.trace_bit <> 0 then push st End fr.f_name [] else now st
    in
    let total = ts -. fr.f_start in
    (match st.stack with
    | parent :: _ -> parent.f_children <- parent.f_children +. total
    | [] -> ());
    if word land Metrics.stats_bit <> 0 then
      Metrics.record_span fr.f_name ~total_us:total
        ~self_us:(Float.max 0. (total -. fr.f_children))
  end

let begin_span ?(args = []) name =
  let word = Atomic.get Metrics.enable_word in
  if word <> 0 then ignore (open_span (Domain.DLS.get state_key) word args name)

let end_span _name =
  if Atomic.get Metrics.enable_word <> 0 then begin
    let st = Domain.DLS.get state_key in
    match st.stack with fr :: _ -> close_span st fr | [] -> ()
  end

let with_span ?(args = []) name f =
  let word = Atomic.get Metrics.enable_word in
  if word = 0 then f ()
  else begin
    let st = Domain.DLS.get state_key in
    let fr = open_span st word args name in
    match f () with
    | v -> close_span st fr; v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span st fr;
      Printexc.raise_with_backtrace e bt
  end

let instant ?(args = []) name =
  if is_enabled () then ignore (push (Domain.DLS.get state_key) Instant name args)

let counter name series =
  if is_enabled () then
    ignore
      (push (Domain.DLS.get state_key) Counter name
         (List.map (fun (k, v) -> (k, Json.Num v)) series))

let buffers () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  bs

let reset () =
  List.iter
    (fun b ->
      b.head <- 0;
      b.len <- 0;
      b.dropped <- 0;
      b.last_ts <- 0.)
    (buffers ())

let dropped_events () = List.fold_left (fun acc b -> acc + b.dropped) 0 (buffers ())

let buffer_events b =
  let cap = Array.length b.ring in
  List.init b.len (fun i -> b.ring.((b.head + i) mod cap))

(* Per-tid B/E re-balancing: ring wrap-around can orphan an E (its B
   was overwritten) and disabling mid-span or a buffer-full tail can
   leave a B unclosed. Drop the former, close the latter at the
   domain's last timestamp, so every exported stream has matched,
   properly nested pairs. *)
let balance_tid evs =
  let out, open_spans, last =
    List.fold_left
      (fun (out, open_spans, _) ev ->
        match (ev.phase, open_spans) with
        | Begin, _ -> (ev :: out, ev :: open_spans, ev.ts_us)
        | End, [] -> (out, [], ev.ts_us) (* orphaned end: its begin was overwritten *)
        | End, _ :: rest -> (ev :: out, rest, ev.ts_us)
        | (Instant | Counter), _ -> (ev :: out, open_spans, ev.ts_us))
      ([], [], 0.) evs
  in
  List.rev_append out (List.map (fun b -> { b with phase = End; ts_us = last; args = [] }) open_spans)

(* Merge across domains by timestamp; a stable sort keeps each
   domain's (monotone) stream in order under ties. *)
let merge per_tid =
  List.stable_sort
    (fun a b ->
      match compare a.ts_us b.ts_us with 0 -> compare a.tid b.tid | c -> c)
    (List.concat per_tid)

let balanced_events () =
  merge
    (List.filter_map
       (fun b ->
         match buffer_events b with [] -> None | evs -> Some (balance_tid evs))
       (buffers ()))

let events () = merge (List.map buffer_events (buffers ()))

let phase_string = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Counter -> "C"

let event_fields ev =
  let base =
    [
      ("name", Json.Str ev.name);
      ("ph", Json.Str (phase_string ev.phase));
      ("ts", Json.Num ev.ts_us);
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int ev.tid));
    ]
  in
  let base =
    (* Chrome instant events carry a scope; "t" = thread. *)
    if ev.phase = Instant then base @ [ ("s", Json.Str "t") ] else base
  in
  match ev.args with [] -> base | args -> base @ [ ("args", Json.Obj args) ]

let metadata_event name tid args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj args);
    ]

let to_chrome_json () =
  let evs = balanced_events () in
  let tids =
    List.sort_uniq compare (List.map (fun b -> b.b_tid) (buffers ()))
  in
  let meta =
    metadata_event "process_name" 0 [ ("name", Json.Str "whyprov") ]
    :: List.map
         (fun tid ->
           let label = if tid = 0 then "domain 0 (main)" else Printf.sprintf "domain %d" tid in
           metadata_event "thread_name" tid [ ("name", Json.Str label) ])
         tids
  in
  let body = List.map (fun ev -> Json.Obj (event_fields ev)) evs in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ body));
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_chrome_string () = Json.to_string (to_chrome_json ())

let write_chrome oc =
  output_string oc (to_chrome_string ());
  output_char oc '\n'

let write_jsonl oc =
  List.iter
    (fun ev ->
      let fields =
        [
          ("ts_us", Json.Num ev.ts_us);
          ("tid", Json.Num (float_of_int ev.tid));
          ("ph", Json.Str (phase_string ev.phase));
          ("name", Json.Str ev.name);
        ]
      in
      let fields =
        match ev.args with [] -> fields | args -> fields @ [ ("args", Json.Obj args) ]
      in
      output_string oc (Json.to_string (Json.Obj fields));
      output_char oc '\n')
    (balanced_events ())
