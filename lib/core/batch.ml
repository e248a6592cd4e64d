open Datalog

(* Observability (docs/OBSERVABILITY.md, "Batch enumerator"). The
   batch.* counters and histogram are recorded from the coordinating
   domain only: per-task figures are carried back from the workers in
   the results array and aggregated after the joins, so they never
   race. The batch.task spans and the deeper layers — encode.*, sat.*,
   enum.* — record from inside the worker domains and rely on
   [Util.Metrics] being domain-safe. *)
module Metrics = Util.Metrics
module Tracing = Util.Tracing

let m_runs = Metrics.counter "batch.runs"
let m_tasks = Metrics.counter "batch.tasks"
let m_workers = Metrics.counter "batch.workers"
let m_members = Metrics.counter "batch.members"
let m_complete = Metrics.counter "batch.complete"
let m_limit_reached = Metrics.counter "batch.limit_reached"
let m_budget_exhausted = Metrics.counter "batch.budget_exhausted"
let m_too_large = Metrics.counter "batch.too_large"
let m_not_derivable = Metrics.counter "batch.not_derivable"
let m_task_us = Metrics.histogram "batch.task_us"

type spec =
  | Facts of Fact.t list
  | All_answers of Symbol.t

type status =
  | Complete
  | Limit_reached
  | Budget_exhausted
  | Too_large
  | Not_derivable

type result = {
  fact : Fact.t;
  members : Fact.Set.t list;
  status : status;
  rank : int option;
  task_s : float;
}

type outcome = {
  results : result list;
  jobs : int;
  cache_hits : int;
  cache_misses : int;
  materialize_s : float;
  closures_s : float;
  fanout_s : float;
}

let pp_status ppf status =
  Format.pp_print_string ppf
    (match status with
    | Complete -> "complete"
    | Limit_reached -> "limit"
    | Budget_exhausted -> "budget"
    | Too_large -> "too-large"
    | Not_derivable -> "not-derivable")

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* One tuple's encode + enumerate, self-contained so it can run on any
   domain: it reads the (frozen) closure and writes only into its own
   solver instance. No new symbols are interned here — interning is a
   global table and stays on the coordinating domain. *)
let enumerate_task ?acyclicity ?max_fill ?preprocess ~limit ~conflict_budget
    closure =
  if not (Closure.derivable closure) then ([], Not_derivable)
  else
    match Encode.make ?acyclicity ?max_fill ?preprocess closure with
    | exception Encode.Too_large _ -> ([], Too_large)
    | encoding ->
      let enumeration = Enumerate.of_parts closure encoding in
      let members = ref [] in
      let rec loop produced =
        if produced >= limit then Limit_reached
        else
          match conflict_budget with
          | None -> (
            match Enumerate.next enumeration with
            | None -> Complete
            | Some m ->
              members := m :: !members;
              loop (produced + 1))
          | Some budget -> (
            match Enumerate.next_limited ~conflict_budget:budget enumeration with
            | `Exhausted -> Complete
            | `Gave_up -> Budget_exhausted
            | `Member m ->
              members := m :: !members;
              loop (produced + 1))
      in
      let status = loop 0 in
      (List.rev !members, status)

let run ?(jobs = 1) ?(limit = max_int) ?conflict_budget ?acyclicity ?max_fill
    ?preprocess program db spec =
  Tracing.with_span "batch.run" @@ fun () ->
  Metrics.incr m_runs;
  let ranks : int Fact.Table.t = Fact.Table.create 1024 in
  let model, materialize_s =
    Tracing.with_span "batch.materialize" @@ fun () ->
    timed (fun () -> Eval.seminaive ~ranks program db)
  in
  let facts =
    match spec with
    | Facts facts -> Array.of_list facts
    | All_answers pred ->
      let acc = ref [] in
      Database.iter_pred model pred (fun f -> acc := f :: !acc);
      Array.of_list (List.sort Fact.compare !acc)
  in
  let cache = Closure.instance_cache program ~model in
  let closures, closures_s =
    Tracing.with_span "batch.closures" @@ fun () ->
    timed (fun () -> Array.map (Closure.build_cached cache db) facts)
  in
  let fact_ranks = Array.map (fun f -> Fact.Table.find_opt ranks f) facts in
  let n = Array.length facts in
  let workers = if n = 0 then 0 else min (max 1 jobs) n in
  let results : result option array = Array.make n None in
  let run_task i =
    (* Per-tuple worker span, recorded on whichever domain claimed the
       index — the trace's per-tid rows show the actual interleaving. *)
    let targs =
      if Tracing.is_enabled () then
        [
          ("fact", Metrics.Json.Str (Fact.to_string facts.(i)));
          ("index", Metrics.Json.Num (float_of_int i));
        ]
      else []
    in
    Tracing.with_span ~args:targs "batch.task" @@ fun () ->
    let (members, status), task_s =
      timed (fun () ->
          enumerate_task ?acyclicity ?max_fill ?preprocess ~limit
            ~conflict_budget closures.(i))
    in
    results.(i) <-
      Some { fact = facts.(i); members; status; rank = fact_ranks.(i); task_s }
  in
  let (), fanout_s =
    Tracing.with_span "batch.fanout" @@ fun () ->
    timed @@ fun () ->
    if workers <= 1 then
      for i = 0 to n - 1 do
        run_task i
      done
    else begin
      (* Self-scheduling pool: each worker claims the next unclaimed
         tuple index. Every results slot is written by exactly one
         domain, and the joins publish the writes to this domain. *)
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            run_task i;
            loop ()
          end
        in
        loop ()
      in
      let domains = List.init workers (fun _ -> Domain.spawn worker) in
      List.iter Domain.join domains
    end
  in
  let results =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* every index claimed *))
         results)
  in
  Metrics.add m_tasks n;
  Metrics.add m_workers workers;
  List.iter
    (fun r ->
      Metrics.add m_members (List.length r.members);
      Metrics.observe m_task_us (r.task_s *. 1e6);
      Metrics.incr
        (match r.status with
        | Complete -> m_complete
        | Limit_reached -> m_limit_reached
        | Budget_exhausted -> m_budget_exhausted
        | Too_large -> m_too_large
        | Not_derivable -> m_not_derivable))
    results;
  {
    results;
    jobs = workers;
    cache_hits = Closure.cache_hits cache;
    cache_misses = Closure.cache_misses cache;
    materialize_s;
    closures_s;
    fanout_s;
  }
