(* Validates a `whyprov --trace FILE` dump: the file must parse as JSON
   via the built-in parser, carry a "traceEvents" list in which every
   event has the mandatory Chrome trace-event fields, per-tid begin/end
   phases balance as a proper stack and per-tid timestamps never go
   backwards (docs/OBSERVABILITY.md, "Structured event tracing").
   Extra arguments after the file are required name prefixes: at least
   one event must match each (the explain smoke requires the pipeline
   spans, the batch smoke adds "batch.task").

   With --stats FILE, FILE is the `--stats-out` dump of the same run,
   and every span name in the trace must have a timer in it: a span
   feeds both sinks, so the two vocabularies are one. *)

module Json = Util.Metrics.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let parse_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  try Json.parse src
  with Json.Parse_error msg -> fail "%s: invalid JSON: %s" path msg

let () =
  let rec args stats required = function
    | "--stats" :: file :: rest -> args (Some file) required rest
    | name :: rest -> args stats (name :: required) rest
    | [] -> (stats, List.rev required)
  in
  let path = Sys.argv.(1) in
  let stats, required =
    args None [] (List.tl (List.tl (Array.to_list Sys.argv)))
  in
  let json = parse_file path in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List events) -> events
    | _ -> fail "%s: no traceEvents list" path
  in
  if events = [] then fail "%s: empty trace" path;
  let field name ev =
    match Json.member name ev with
    | Some v -> v
    | None -> fail "%s: event missing %S: %s" path name (Json.to_string ev)
  in
  let str ev name =
    match field name ev with
    | Json.Str s -> s
    | j -> fail "%s: %s must be a string, got %s" path name (Json.to_string j)
  in
  let num ev name =
    match field name ev with
    | Json.Num n -> n
    | j -> fail "%s: %s must be a number, got %s" path name (Json.to_string j)
  in
  let stacks : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let names = Hashtbl.create 64 and spans = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      let ph = str ev "ph" in
      if not (List.mem ph [ "B"; "E"; "i"; "C"; "M" ]) then
        fail "%s: unknown phase %S" path ph;
      let name = str ev "name" in
      Hashtbl.replace names name ();
      ignore (num ev "pid");
      if ph <> "M" then begin
        let tid = int_of_float (num ev "tid") in
        let ts = num ev "ts" in
        (match Hashtbl.find_opt last_ts tid with
        | Some prev when ts < prev ->
          fail "%s: tid %d: timestamp went backwards (%g after %g)" path tid
            ts prev
        | _ -> ());
        Hashtbl.replace last_ts tid ts;
        let depth = Option.value ~default:0 (Hashtbl.find_opt stacks tid) in
        match ph with
        | "B" ->
          Hashtbl.replace spans name ();
          Hashtbl.replace stacks tid (depth + 1)
        | "E" ->
          if depth = 0 then
            fail "%s: tid %d: %S ends a span that never began" path tid name
          else Hashtbl.replace stacks tid (depth - 1)
        | _ -> ()
      end)
    events;
  Hashtbl.iter
    (fun tid depth ->
      if depth <> 0 then
        fail "%s: tid %d: %d span(s) left open" path tid depth)
    stacks;
  List.iter
    (fun prefix ->
      let matches name =
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix
      in
      if not (Hashtbl.fold (fun name () acc -> acc || matches name) names false)
      then fail "%s: no %s* event recorded" path prefix)
    required;
  Option.iter
    (fun stats_path ->
      let timers =
        match Json.member "timers" (parse_file stats_path) with
        | Some (Json.Obj timers) -> timers
        | _ -> fail "%s: no timers object" stats_path
      in
      Hashtbl.iter
        (fun name () ->
          if not (List.mem_assoc name timers) then
            fail "%s: span %S has no timer in %s" path name stats_path)
        spans)
    stats
