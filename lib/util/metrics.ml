(* Pipeline-wide observability: monotonic counters, per-name stage
   timers, power-of-two histograms, and a global registry with
   reset/snapshot and human/JSON renderers.

   Design constraints (see docs/OBSERVABILITY.md for the schema):

   - Zero cost when disabled: this module and [Tracing] share one
     enable word, and every recording entry point of either is one
     atomic load of it before touching the clock or allocating.
     Handle creation ([counter] / [histogram]) is allowed while
     disabled — it is a one-time registry insertion at module load.
   - Timers have no entry point of their own: [Tracing]'s span
     functions keep the per-domain span stack, read the clock, and
     hand each closed span to [record_span] when stats are on.
   - Domain-safe recording: the batch enumerator fans per-tuple work
     out over OCaml 5 domains, and every worker records into the same
     global instruments. Counters are [Atomic.t] (no lost increments);
     timer/histogram mutations and registry traversals take a single
     process-wide mutex (records are rare next to counter bumps).
   - No dependencies beyond [Unix.gettimeofday]; JSON is rendered and
     parsed by the tiny [Json] module below so that snapshots can be
     round-tripped in tests and validated by tooling without pulling a
     JSON library into the build. *)

(* --- Minimal JSON ------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let number_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else
      (* %.17g round-trips every finite IEEE double exactly. *)
      Printf.sprintf "%.17g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 1024 in
    write buf t;
    Buffer.contents buf

  exception Parse_error of string

  (* Recursive-descent parser over a string; supports exactly the
     constructs [write] emits (plus whitespace and escape sequences). *)
  let parse src =
    let n = String.length src in
    let pos = ref 0 in
    let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some src.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> error (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub src !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else error (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then error "unterminated string"
        else begin
          let c = src.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents buf
          | '\\' -> (
            if !pos >= n then error "unterminated escape";
            let e = src.[!pos] in
            advance ();
            match e with
            | '"' -> Buffer.add_char buf '"'; loop ()
            | '\\' -> Buffer.add_char buf '\\'; loop ()
            | '/' -> Buffer.add_char buf '/'; loop ()
            | 'n' -> Buffer.add_char buf '\n'; loop ()
            | 'r' -> Buffer.add_char buf '\r'; loop ()
            | 't' -> Buffer.add_char buf '\t'; loop ()
            | 'b' -> Buffer.add_char buf '\b'; loop ()
            | 'f' -> Buffer.add_char buf '\012'; loop ()
            | 'u' ->
              if !pos + 4 > n then error "truncated \\u escape";
              let hex = String.sub src !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> error "bad \\u escape"
              in
              (* Snapshots only ever contain ASCII; decode the BMP
                 code point as UTF-8 for completeness. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              loop ()
            | _ -> error "unknown escape")
          | c -> Buffer.add_char buf c; loop ()
        end
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char src.[!pos] do
        advance ()
      done;
      if !pos = start then error "expected number";
      match float_of_string_opt (String.sub src start (!pos - start)) with
      | Some f -> f
      | None -> error "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> error "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((key, value) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((key, value) :: acc)
            | _ -> error "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (value :: acc)
            | Some ']' ->
              advance ();
              List.rev (value :: acc)
            | _ -> error "expected ',' or ']'"
          in
          List (items [])
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing characters";
    v

  let rec equal a b =
    match a, b with
    | Null, Null -> true
    | Bool x, Bool y -> x = y
    | Num x, Num y -> x = y
    | Str x, Str y -> String.equal x y
    | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
    | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           xs ys
    | _ -> false

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* --- Metric kinds ------------------------------------------------------ *)

type counter = {
  c_name : string;
  c_value : int Atomic.t;
}

(* Durations are whole microseconds, summed exactly; snapshots
   convert them to seconds. *)
type timer = {
  mutable t_count : int;
  mutable t_total : float;   (* inclusive *)
  mutable t_self : float;    (* total minus time spent in nested spans *)
  mutable t_max : float;     (* longest single span *)
}

(* Power-of-two buckets: bucket [i] counts observations with
   value <= 2^i (bucket 0 also catches v <= 1, including non-positive
   observations). 63 buckets cover the whole non-negative int range. *)
let histogram_buckets = 63

type histogram = {
  h_name : string;
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | Counter of counter
  | Timer of timer
  | Histogram of histogram

(* --- Registry --------------------------------------------------------- *)

(* The enable word shared with [Tracing] and the rule profiler: one
   bit per sink. *)
let stats_bit = 1
let trace_bit = 2
let profile_bit = 4
let enable_word = Atomic.make 0

let rec set_bit bit on =
  let w = Atomic.get enable_word in
  let w' = if on then w lor bit else w land lnot bit in
  if not (Atomic.compare_and_set enable_word w w') then set_bit bit on

let set_enabled on = set_bit stats_bit on
let is_enabled () = Atomic.get enable_word land stats_bit <> 0

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* One process-wide lock guards the registry table and every
   timer/histogram mutation. Counters bypass it (they are atomics). *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

(* Insertion order, so snapshots are stable without sorting surprises
   (we still sort by name when rendering). *)
let register name metric =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some existing -> existing
  | None ->
    Hashtbl.add registry name metric;
    metric

let counter name =
  match register name (Counter { c_name = name; c_value = Atomic.make 0 }) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics.counter: %s is not a counter" name)

let histogram name =
  match
    register name
      (Histogram
         {
           h_name = name;
           buckets = Array.make histogram_buckets 0;
           h_count = 0;
           h_sum = 0.0;
           h_min = infinity;
           h_max = neg_infinity;
         })
  with
  | Histogram h -> h
  | _ ->
    invalid_arg (Printf.sprintf "Metrics.histogram: %s is not a histogram" name)

(* --- Recording -------------------------------------------------------- *)

let incr c = if is_enabled () then Atomic.incr c.c_value
let add c n = if is_enabled () then ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let bucket_of v =
  if v <= 1.0 then 0
  else begin
    let rec loop i bound =
      if i >= histogram_buckets - 1 || v <= bound then i
      else loop (i + 1) (bound *. 2.0)
    in
    loop 1 2.0
  end

let observe h v =
  if is_enabled () then
    locked @@ fun () ->
    h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v

let observe_int h v = observe h (float_of_int v)

let observe_span_us h f =
  (* Wall-clock a thunk into a histogram, in microseconds. The shared
     replacement for hand-rolled [Unix.gettimeofday] bracketing: one
     clock source, exception-safe, free when recording is disabled. *)
  if not (is_enabled ()) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> observe h ((Unix.gettimeofday () -. t0) *. 1e6))
      f
  end

let record_span name ~total_us ~self_us =
  locked @@ fun () ->
  let t =
    match Hashtbl.find_opt registry name with
    | Some (Timer t) -> t
    | Some _ -> invalid_arg (Printf.sprintf "Metrics: span %s is not a timer" name)
    | None ->
      let t = { t_count = 0; t_total = 0.0; t_self = 0.0; t_max = 0.0 } in
      Hashtbl.add registry name (Timer t);
      t
  in
  t.t_count <- t.t_count + 1;
  t.t_total <- t.t_total +. total_us;
  t.t_self <- t.t_self +. self_us;
  if total_us > t.t_max then t.t_max <- total_us

(* --- Reset / snapshot -------------------------------------------------- *)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | Counter c -> Atomic.set c.c_value 0
      | Timer t ->
        t.t_count <- 0;
        t.t_total <- 0.0;
        t.t_self <- 0.0;
        t.t_max <- 0.0
      | Histogram h ->
        Array.fill h.buckets 0 histogram_buckets 0;
        h.h_count <- 0;
        h.h_sum <- 0.0;
        h.h_min <- infinity;
        h.h_max <- neg_infinity)
    registry

type snapshot_entry =
  | Counter_value of int
  | Timer_value of { count : int; total : float; self : float; max : float }
  | Histogram_value of {
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : (float * int) list; (* (inclusive upper bound, count), non-empty only *)
    }

(* Only metrics that recorded something appear in snapshots: a
   registered-but-untouched metric is noise, and dropping it keeps the
   "non-zero value per layer" contract meaningful. *)
let live metric =
  match metric with
  | Counter c -> Atomic.get c.c_value <> 0
  | Timer t -> t.t_count <> 0
  | Histogram h -> h.h_count <> 0

let snapshot () =
  locked @@ fun () ->
  Hashtbl.fold
    (fun name metric acc ->
      if not (live metric) then acc
      else
        let entry =
          match metric with
          | Counter c -> Counter_value (Atomic.get c.c_value)
          | Timer t ->
            Timer_value
              {
                count = t.t_count;
                total = t.t_total /. 1e6;
                self = t.t_self /. 1e6;
                max = t.t_max /. 1e6;
              }
          | Histogram h ->
            let buckets = ref [] in
            for i = histogram_buckets - 1 downto 0 do
              if h.buckets.(i) > 0 then
                buckets := (Float.pow 2.0 (float_of_int i), h.buckets.(i)) :: !buckets
            done;
            Histogram_value
              {
                count = h.h_count;
                sum = h.h_sum;
                min = h.h_min;
                max = h.h_max;
                buckets = !buckets;
              }
        in
        (name, entry) :: acc)
    registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name = locked (fun () -> Hashtbl.find_opt registry name)
let get_counter name = match find name with Some (Counter c) -> Atomic.get c.c_value | _ -> 0
let get_timer_count name = match find name with Some (Timer t) -> t.t_count | _ -> 0
let get_histogram_count name = match find name with Some (Histogram h) -> h.h_count | _ -> 0

(* --- Renderers --------------------------------------------------------- *)

let schema_version = "whyprov.metrics/1"

(* Percentile over sparse power-of-two buckets: the inclusive upper
   bound of the first bucket whose cumulative count reaches rank
   [ceil (q * total)]. An upper bound, not an interpolation — honest
   about what bucketed data can support. *)
let percentile_of_buckets buckets q =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec go cum = function
      | [] -> 0.0
      | [ (le, _) ] -> le
      | (le, c) :: rest -> if cum + c >= rank then le else go (cum + c) rest
    in
    go 0 buckets
  end

let snapshot_to_json () =
  let entries = snapshot () in
  let counters = ref [] and timers = ref [] and histograms = ref [] in
  List.iter
    (fun (name, entry) ->
      match entry with
      | Counter_value v -> counters := (name, Json.Num (float_of_int v)) :: !counters
      | Timer_value { count; total; self; max } ->
        timers :=
          ( name,
            Json.Obj
              [
                ("count", Json.Num (float_of_int count));
                ("total_s", Json.Num total);
                ("self_s", Json.Num self);
                ("max_s", Json.Num max);
              ] )
          :: !timers
      | Histogram_value { count; sum; min; max; buckets } ->
        histograms :=
          ( name,
            Json.Obj
              [
                ("count", Json.Num (float_of_int count));
                ("sum", Json.Num sum);
                ("min", Json.Num min);
                ("max", Json.Num max);
                ("p50", Json.Num (percentile_of_buckets buckets 0.50));
                ("p90", Json.Num (percentile_of_buckets buckets 0.90));
                ("p99", Json.Num (percentile_of_buckets buckets 0.99));
                ( "buckets",
                  Json.List
                    (List.map
                       (fun (le, c) ->
                         Json.Obj
                           [ ("le", Json.Num le); ("count", Json.Num (float_of_int c)) ])
                       buckets) );
              ] )
          :: !histograms)
    entries;
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("counters", Json.Obj (List.rev !counters));
      ("timers", Json.Obj (List.rev !timers));
      ("histograms", Json.Obj (List.rev !histograms));
    ]

let to_json_string () = Json.to_string (snapshot_to_json ())

let pp_duration ppf seconds =
  if seconds < 0.001 then Format.fprintf ppf "%.0fµs" (seconds *. 1e6)
  else if seconds < 1.0 then Format.fprintf ppf "%.1fms" (seconds *. 1e3)
  else Format.fprintf ppf "%.2fs" seconds

let pp ppf () =
  let entries = snapshot () in
  if entries = [] then Format.fprintf ppf "(no metrics recorded)@."
  else
    List.iter
      (fun (name, entry) ->
        match entry with
        | Counter_value v -> Format.fprintf ppf "%-40s %12d@." name v
        | Timer_value { count; total; self; max } ->
          Format.fprintf ppf "%-40s %12s  (self %s, max %s, %d span%s)@." name
            (Format.asprintf "%a" pp_duration total)
            (Format.asprintf "%a" pp_duration self)
            (Format.asprintf "%a" pp_duration max)
            count
            (if count = 1 then "" else "s")
        | Histogram_value { count; sum; min; max; buckets } ->
          Format.fprintf ppf "%-40s n=%d sum=%g min=%g max=%g p50<=%g p90<=%g p99<=%g@."
            name count sum min max
            (percentile_of_buckets buckets 0.50)
            (percentile_of_buckets buckets 0.90)
            (percentile_of_buckets buckets 0.99);
          List.iter
            (fun (le, c) -> Format.fprintf ppf "%40s   <= %-12g %d@." "" le c)
            buckets)
      entries

let to_string () = Format.asprintf "%a" pp ()
