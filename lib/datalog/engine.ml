module Metrics = Util.Metrics
module Tracing = Util.Tracing

(* The "Datalog evaluation" instruments of docs/OBSERVABILITY.md. The
   registry is idempotent: [eval.tuples_matched] is the same counter
   the backward joins of [Eval.match_atom] tick. *)
let m_runs = Metrics.counter "eval.seminaive.runs"
let m_rounds = Metrics.counter "eval.rounds"
let m_derived = Metrics.counter "eval.facts_derived"
let m_model_facts = Metrics.counter "eval.model_facts"
let m_firings = Metrics.counter "eval.rule_firings"
let m_tuples = Metrics.counter "eval.tuples_matched"
let m_delta_size = Metrics.histogram "eval.delta_size"
let m_tasks = Metrics.counter "eval.join.tasks"
let m_probes = Metrics.counter "eval.join.probes"
let m_scans = Metrics.counter "eval.join.scans"
let m_index_probes = Metrics.counter "eval.index.probes"
let m_index_hits = Metrics.counter "eval.index.hits"

(* Tarjan over the predicate graph (body -> head edges). Components
   come out sources-first, which is a topological order of the
   condensation, so stratum 0 holds the most extensional SCCs. *)
let strata program =
  let preds = Program.schema program in
  let succ : (Symbol.t, Symbol.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace succ p (ref [])) preds;
  List.iter
    (fun (r, p) ->
      match Hashtbl.find_opt succ r with
      | Some l -> l := p :: !l
      | None -> ())
    (Program.predicate_edges program);
  let index : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
  let lowlink : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
  let on_stack : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec visit v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          visit w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      !(Hashtbl.find succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if Symbol.equal w v then w :: acc else pop (w :: acc)
      in
      sccs := List.sort Symbol.compare (pop []) :: !sccs
    end
  in
  List.iter (fun p -> if not (Hashtbl.mem index p) then visit p) preds;
  !sccs

(* ------------------------------------------------------------------ *)
(* Plan execution                                                      *)
(* ------------------------------------------------------------------ *)

(* Counters a task accumulates locally and the round flushes into the
   metrics registry once, keeping registry lookups off the hot path. *)
type task_stats = {
  mutable s_tuples : int;
  mutable s_probes : int;
  mutable s_scans : int;
  mutable s_hits : int;
}

type task = {
  t_plan : Plan.t;
  t_stats : task_stats;
  t_prof : Profile.task option;
      (* per-instruction match counts and accepted-row count for the
         profiler; [None] unless profiling was on when the fixpoint
         started, so the disabled engine carries only this one word *)
}

let make_task profiling plan =
  {
    t_plan = plan;
    t_stats = { s_tuples = 0; s_probes = 0; s_scans = 0; s_hits = 0 };
    t_prof =
      (if profiling then
         Some (Profile.task_create (Array.length plan.Plan.p_instrs))
       else None);
  }

(* Run one compiled plan. [model] holds one relation per schema
   predicate; the round's delta is not a separate relation but the row
   range [ranges] of each model relation appended by the previous
   round — semi-naive evaluation without ever copying or re-hashing a
   delta fact. [limits] is the per-predicate row count at round start:
   full scans stop there, and the column indexes are only extended at
   round boundaries, so a round only ever joins against the model as it
   stood when the round began. Derived head rows go straight into the
   model relation, so tasks run in task order fix the row sequence. *)
let run_task ~model ~limits ~ranges task =
  let plan = task.t_plan in
  let stats = task.t_stats in
  let instrs = plan.Plan.p_instrs in
  let n = Array.length instrs in
  let regs = Array.make (max plan.Plan.p_nregs 1) 0 in
  let head = plan.Plan.p_head in
  let hw = Array.length head in
  let hbuf = Array.make (max hw 1) 0 in
  let model_head : Flatrel.t = Hashtbl.find model plan.Plan.p_head_pred in
  let ground_head () =
    for c = 0 to hw - 1 do
      let v = head.(c) in
      hbuf.(c) <- (if v >= 0 then v else regs.(-v - 1))
    done
  in
  let emit =
    match task.t_prof with
    | None ->
      fun () ->
        (* One combined lookup-or-insert; duplicates of both older
           rounds and this round's earlier emissions are rejected by the
           row table, and the indexes stay frozen until the round
           boundary. *)
        ground_head ();
        ignore (Flatrel.append model_head hbuf 0)
    | Some tp ->
      fun () ->
        ground_head ();
        if Flatrel.append model_head hbuf 0 then
          tp.Profile.new_rows <- tp.Profile.new_rows + 1
  in
  (* Compile the instruction array, last to first, into a chain of
     closures built once per task: the per-row checks close only over
     task state (register file, stats, relations), never over the row,
     so the scan/probe loops below allocate nothing per tuple. *)
  let rec build i =
    if i = n then emit
    else begin
      let next =
        (* Count tuples matched per instruction by wrapping the chain
           link once at build time — the disabled engine keeps the
           unwrapped closure and pays nothing per row. *)
        match task.t_prof with
        | None -> build (i + 1)
        | Some tp ->
          let next0 = build (i + 1) in
          let out = tp.Profile.out in
          fun () ->
            out.(i) <- out.(i) + 1;
            next0 ()
      in
      let ins = instrs.(i) in
      match Hashtbl.find_opt model ins.Plan.i_pred with
      | None -> fun () -> ()
      | Some rel ->
        let consts = ins.Plan.i_consts
        and checks = ins.Plan.i_checks
        and binds = ins.Plan.i_binds
        and dups = ins.Plan.i_dups in
        let nconsts = Array.length consts
        and nchecks = Array.length checks
        and nbinds = Array.length binds
        and ndups = Array.length dups in
        let rec consts_ok k row =
          k >= nconsts
          ||
          let col, v = consts.(k) in
          Flatrel.get rel row col = v && consts_ok (k + 1) row
        in
        let rec checks_ok k row =
          k >= nchecks
          ||
          let col, r = checks.(k) in
          Flatrel.get rel row col = regs.(r) && checks_ok (k + 1) row
        in
        let rec dups_ok k row =
          k >= ndups
          ||
          let col, r = dups.(k) in
          Flatrel.get rel row col = regs.(r) && dups_ok (k + 1) row
        in
        let try_row row =
          if consts_ok 0 row && checks_ok 0 row then begin
            for k = 0 to nbinds - 1 do
              let col, r = binds.(k) in
              regs.(r) <- Flatrel.get rel row col
            done;
            if dups_ok 0 row then begin
              stats.s_tuples <- stats.s_tuples + 1;
              next ()
            end
          end
        in
        if ins.Plan.i_from_delta then begin
          (* The delta atom (always the plan's first instruction): scan
             the rows the previous round appended, checking constant
             columns inline — delta ranges are small and never carry
             column indexes. *)
          match Hashtbl.find_opt ranges ins.Plan.i_pred with
          | None -> fun () -> stats.s_scans <- stats.s_scans + 1
          | Some (lo, hi) ->
            fun () ->
              stats.s_scans <- stats.s_scans + 1;
              for row = lo to hi - 1 do
                try_row row
              done
        end
        else if nconsts = 0 && nchecks = 0 then begin
          (* Unbound scan, stopping at the round-start watermark so
             rows appended by this round's own tasks stay invisible. *)
          let n0 =
            match Hashtbl.find_opt limits ins.Plan.i_pred with
            | Some n -> n
            | None -> Flatrel.length rel
          in
          fun () ->
            stats.s_scans <- stats.s_scans + 1;
            for row = 0 to n0 - 1 do
              try_row row
            done
        end
        else begin
          (* Probe the bound column with the smallest index bucket; an
             empty bucket on any bound column means zero matches. The
             scratch refs are per-instruction, reset on entry. *)
          let best = ref (-1) and best_col = ref 0 in
          let best_n = ref max_int in
          let consider col v =
            let h = Flatrel.bucket rel col v in
            let nr = Flatrel.bucket_length rel col h in
            if nr < !best_n then begin
              best := h;
              best_col := col;
              best_n := nr
            end
          in
          let rec pick_consts k =
            if k < nconsts && !best_n > 0 then begin
              let col, v = consts.(k) in
              consider col v;
              pick_consts (k + 1)
            end
          in
          let rec pick_checks k =
            if k < nchecks && !best_n > 0 then begin
              let col, r = checks.(k) in
              consider col regs.(r);
              pick_checks (k + 1)
            end
          in
          fun () ->
            best_n := max_int;
            pick_consts 0;
            pick_checks 0;
            stats.s_probes <- stats.s_probes + 1;
            if !best_n > 0 then begin
              stats.s_hits <- stats.s_hits + 1;
              Flatrel.iter_bucket rel !best_col !best try_row
            end
        end
    end
  in
  (build 0) ()

(* ------------------------------------------------------------------ *)
(* Semi-naive fixpoint                                                 *)
(* ------------------------------------------------------------------ *)

let round_span round f =
  let args =
    if Tracing.is_enabled () then [ ("round", Metrics.Json.Num (float_of_int round)) ] else []
  in
  Tracing.with_span ~args "eval.round" f

let seminaive ?ranks program db =
  Tracing.with_span "eval.seminaive" @@ fun () ->
  Metrics.incr m_runs;
  (* The model starts as a row-reversed copy of the database's
     relations: the order [of_list (to_list db)] gives (the structural
     oracle's starting model), which leaks into closure and encoding
     order downstream. Rules append derived rows to these relations in place,
     and they are the model returned. *)
  let model_db = Database.copy db in
  let schema_rels =
    List.map
      (fun p -> (p, Database.relation model_db p ~arity:(Program.arity program p)))
      (Program.schema program)
  in
  let model : (Symbol.t, Flatrel.t) Hashtbl.t =
    Hashtbl.of_seq (List.to_seq schema_rels)
  in
  let init_lens =
    List.map (fun (p, rel) -> (p, Flatrel.length rel)) schema_rels
  in
  (* Compile every (rule, delta position) pair once. Delta tasks are
     ordered stratum-first (then rule id, then body position): the task
     list is deterministic, and so is the row order it appends. *)
  let rules = Array.of_list (Program.rules program) in
  let full_plans =
    Array.map (fun r -> Plan.compile program r ~delta:(-1)) rules
  in
  let sccs = strata program in
  let stratum_of =
    let h : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
    List.iteri
      (fun i scc -> List.iter (fun p -> Hashtbl.replace h p i) scc)
      sccs;
    fun p -> match Hashtbl.find_opt h p with Some i -> i | None -> 0
  in
  (* The profiler flag is sampled once per fixpoint: every task of this
     run either carries a profile buffer or none do. *)
  let prof_run =
    if Profile.is_enabled () then Some (Profile.run_begin program sccs)
    else None
  in
  let profiling = prof_run <> None in
  let delta_plans =
    let acc = ref [] in
    Array.iter
      (fun r ->
        List.iteri
          (fun i (a : Atom.t) ->
            if Program.is_idb program a.Atom.pred then
              acc := Plan.compile program r ~delta:i :: !acc)
          (Rule.body r))
      rules;
    List.rev !acc
    |> List.stable_sort (fun (p : Plan.t) (q : Plan.t) ->
           compare (stratum_of p.p_head_pred) (stratum_of q.p_head_pred))
    |> Array.of_list
  in
  (* Every model column any plan may probe, indexed up front, so no
     index is ever built mid-round. Delta atoms scan their row range
     instead of probing, so delta-side requirements ([from_delta =
     true]) need no index at all — and a column only the full (round-1)
     plans probe is dropped right after round 1 rather than maintained
     for the rest of the fixpoint. *)
  let cols_of plans =
    let cols : (Symbol.t * int, unit) Hashtbl.t = Hashtbl.create 16 in
    Array.iter
      (fun plan ->
        List.iter
          (fun (pred, from_delta, col) ->
            if not from_delta then Hashtbl.replace cols (pred, col) ())
          (Plan.required_indexes plan))
      plans;
    cols
  in
  let full_cols = cols_of full_plans and delta_cols = cols_of delta_plans in
  let ensure (pred, col) =
    match Hashtbl.find_opt model pred with
    | Some rel -> Flatrel.ensure_index rel col
    | None -> ()
  in
  Hashtbl.iter (fun key () -> ensure key) full_cols;
  Hashtbl.iter (fun key () -> ensure key) delta_cols;
  let full_only_cols =
    Hashtbl.fold
      (fun key () acc ->
        if Hashtbl.mem delta_cols key then acc else key :: acc)
      full_cols []
  in
  (* Per-predicate row counts at round start: the watermark full scans
     stop at, and the [lo] of the ranges [close_round] publishes. *)
  let limits : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
  let snapshot () =
    List.iter
      (fun (p, rel) -> Hashtbl.replace limits p (Flatrel.length rel))
      schema_rels
  in
  (* Round boundaries per predicate — [(round, hi)] in descending round
     order — so that ranks can label every derived row with the round
     that appended it. *)
  let boundaries : (Symbol.t, (int * int) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let run_tasks tasks ranges =
    let ntasks = Array.length tasks in
    Array.iter
      (fun t ->
        match t.t_prof with
        | None -> run_task ~model ~limits ~ranges t
        | Some tp ->
          let t0 = Profile.now_s () in
          run_task ~model ~limits ~ranges t;
          tp.Profile.secs <- tp.Profile.secs +. (Profile.now_s () -. t0))
      tasks;
    Metrics.add m_firings ntasks;
    Metrics.add m_tasks ntasks;
    if Metrics.is_enabled () then
      Array.iter
        (fun t ->
          let s = t.t_stats in
          Metrics.add m_tuples s.s_tuples;
          Metrics.add m_probes s.s_probes;
          Metrics.add m_scans s.s_scans;
          Metrics.add m_index_probes s.s_probes;
          Metrics.add m_index_hits s.s_hits)
        tasks
  in
  (* Close a round. The tasks appended their rows to the model relations
     already, in task order; the appended ranges — the next round's
     delta — are now replayed into the live column indexes, which no
     task touches mid-round. *)
  let close_round round =
    let ranges : (Symbol.t, int * int) Hashtbl.t = Hashtbl.create 8 in
    let total = ref 0 in
    List.iter
      (fun (pred, rel) ->
        let lo = Hashtbl.find limits pred in
        let hi = Flatrel.length rel in
        if hi > lo then begin
          Hashtbl.replace ranges pred (lo, hi);
          total := !total + (hi - lo);
          Metrics.add m_derived (hi - lo);
          Flatrel.reindex_range rel lo hi;
          let b =
            match Hashtbl.find_opt boundaries pred with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add boundaries pred r;
              r
          in
          b := (round, hi) :: !b
        end)
      schema_rels;
    if Metrics.is_enabled () then begin
      Metrics.observe_int m_delta_size !total;
      Hashtbl.iter
        (fun pred (lo, hi) ->
          Metrics.add
            (Metrics.counter ("eval.delta." ^ Symbol.name pred))
            (hi - lo))
        ranges
    end;
    if Tracing.is_enabled () then
      Tracing.counter "eval.delta" [ ("facts", float_of_int !total) ];
    (ranges, !total)
  in
  (* Fold the round's tasks into the profile run, in task order. *)
  let profile_round tasks (ranges, _total) =
    match prof_run with
    | None -> ()
    | Some run ->
      Array.iter
        (fun t ->
          match t.t_prof with
          | Some tp ->
            let s = t.t_stats in
            Profile.record_task run t.t_plan tp ~probes:s.s_probes
              ~hits:s.s_hits ~scans:s.s_scans
          | None -> ())
        tasks;
      Profile.record_round run
        (Hashtbl.fold
           (fun p (lo, hi) acc -> (p, hi - lo) :: acc)
           ranges [])
  in
  (* Round 1: full evaluation of every rule over the database. *)
  let empty : (Symbol.t, int * int) Hashtbl.t = Hashtbl.create 1 in
  snapshot ();
  let tasks1 = Array.map (make_task profiling) full_plans in
  round_span 1 (fun () -> run_tasks tasks1 empty);
  Metrics.incr m_rounds;
  List.iter
    (fun (pred, col) ->
      match Hashtbl.find_opt model pred with
      | Some rel -> Flatrel.drop_index rel col
      | None -> ())
    full_only_cols;
  let delta = ref (close_round 1) in
  profile_round tasks1 !delta;
  let round = ref 2 in
  while snd !delta > 0 do
    snapshot ();
    let tasks = Array.map (make_task profiling) delta_plans in
    round_span !round (fun () -> run_tasks tasks (fst !delta));
    Metrics.incr m_rounds;
    delta := close_round !round;
    profile_round tasks !delta;
    incr round
  done;
  Option.iter Profile.run_end prof_run;
  (* Ranks, only when asked for: 0 for the database's facts, then each
     relation's derived rows labelled from the recorded round
     boundaries. Callers pass a fresh table ({!Engine.seminaive}'s
     contract) and every fact is recorded exactly once, so no
     membership pre-check is needed. *)
  Option.iter
    (fun table ->
      List.iter (fun f -> Fact.Table.add table f 0) (Database.to_list db);
      List.iter
        (fun (pred, rel) ->
          let cur =
            ref
              (match Hashtbl.find_opt boundaries pred with
              | Some r -> List.rev !r
              | None -> [])
          in
          for row = List.assoc pred init_lens to Flatrel.length rel - 1 do
            (match !cur with
            | (_, hi) :: rest when row >= hi ->
              cur := rest (* boundaries are one round apart: single step *)
            | _ -> ());
            let rnd = match !cur with (r, _) :: _ -> r | [] -> 0 in
            Fact.Table.add table (Flatrel.fact rel ~pred row) rnd
          done)
        schema_rels)
    ranks;
  Metrics.add m_model_facts (Database.size model_db);
  model_db
