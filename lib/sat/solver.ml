module Vec = Util.Vec

(* Observability (docs/OBSERVABILITY.md, "SAT solver"). The hot loops
   (propagate, enqueue) keep using the solver's own [n_*] fields; the
   global registry is synchronized with their deltas once per [solve]
   call, so enabling metrics costs nothing on the search path. The LBD
   histogram and learnt-clause counter tick per conflict, which is
   orders of magnitude rarer than propagations. *)
module Metrics = Util.Metrics

let m_solve_time = Metrics.timer "sat.solve"
let m_solve_calls = Metrics.counter "sat.solve_calls"
let m_clauses_added = Metrics.counter "sat.clauses_added"
let m_decisions = Metrics.counter "sat.decisions"
let m_propagations = Metrics.counter "sat.propagations"
let m_conflicts = Metrics.counter "sat.conflicts"
let m_restarts = Metrics.counter "sat.restarts"
let m_learnt_clauses = Metrics.counter "sat.learnt_clauses"
let m_learnt_literals = Metrics.counter "sat.learnt_literals"
let m_deleted_clauses = Metrics.counter "sat.deleted_clauses"
let m_db_reductions = Metrics.counter "sat.db_reductions"
let m_lbd = Metrics.histogram "sat.lbd"
let m_otf_subsumed = Metrics.counter "sat.otf_subsumed"

module Tracing = Util.Tracing

type result =
  | Sat
  | Unsat

(* Tuning knobs, one record instead of scattered module-level constants
   so the bench harness can sweep them. *)
type config = {
  restart_base : int;
  restart_factor : float;
  max_learnts : int;
  max_learnts_growth_pct : int;
  var_decay : float;
  cla_decay : float;
  otf_subsume : bool;
}

let default_config =
  {
    restart_base = 100;
    restart_factor = 2.0;
    max_learnts = 8000;
    max_learnts_growth_pct = 10;
    var_decay = 0.95;
    cla_decay = 0.999;
    otf_subsume = true;
  }

(* --- Progress telemetry ------------------------------------------------

   A periodic sample of the search's vital signs, in the MiniSat /
   Glucose progress-line tradition. The hook is module-level (solvers
   are created deep inside [Encode.make], far from the CLI that wants
   the telemetry) and the per-conflict cost when armed is one integer
   comparison against a precomputed threshold; when disarmed the
   threshold is [max_int] and the comparison never fires. *)

type progress = {
  p_conflicts : int;
  p_decisions : int;
  p_propagations : int;
  p_restarts : int;
  p_learnts : int;       (* learnt clauses currently in the database *)
  p_lbd_avg : float;     (* mean LBD over every clause learnt so far *)
  p_decision_level : int;
}

let progress_callback : (progress -> unit) option Atomic.t = Atomic.make None
let progress_interval = Atomic.make 0

(* When tracing is on but no callback is installed, counter samples
   still flow into the trace at this conflict cadence. *)
let default_trace_interval = 4096

let set_progress ?(interval = 2048) cb =
  (match cb with
  | None -> Atomic.set progress_interval 0
  | Some _ -> Atomic.set progress_interval (max 1 interval));
  Atomic.set progress_callback cb

type totals = {
  t_solves : int;
  t_conflicts : int;
  t_restarts : int;
  t_learnt_clauses : int;
}

(* Cross-solver, cross-domain running totals, synchronized once per
   solve call (in [sync_deltas]) whenever progress reporting is armed —
   what a final "N solves, M conflicts" stderr summary reads. *)
let tot_solves = Atomic.make 0
let tot_conflicts = Atomic.make 0
let tot_restarts = Atomic.make 0
let tot_learnts = Atomic.make 0

let progress_totals () =
  {
    t_solves = Atomic.get tot_solves;
    t_conflicts = Atomic.get tot_conflicts;
    t_restarts = Atomic.get tot_restarts;
    t_learnt_clauses = Atomic.get tot_learnts;
  }

(* Learnt-clause LBD distribution: one bin per LBD value, last bin
   collects everything >= lbd_bins - 1. Kept per solver (plain ints,
   single-domain) unlike the global [m_lbd] histogram. *)
let lbd_bins = 33

(* Truth value of a literal/variable: we store, per variable, the parity
   of the true literal (0 if the variable is true, 1 if false), or -1
   when unassigned. [Lit.t land 1] is 0 for positive literals, so a
   literal [l] is true iff [assigns.(var l) = l land 1]. *)
let v_undef = -1

type clause = {
  mutable lits : Lit.t array;
  learnt : bool;
  mutable act : float;
  mutable lbd : int;
  mutable deleted : bool;
}

type t = {
  cfg : config;
  mutable clauses : clause Vec.t;
  mutable learnts : clause Vec.t;
  mutable watches : clause Vec.t array; (* indexed by literal *)
  mutable assigns : int array;          (* var -> v_undef | 0 | 1 *)
  mutable levels : int array;           (* var -> decision level *)
  mutable reasons : clause option array;
  mutable activity : float array;
  mutable polarity : bool array;        (* saved phase *)
  mutable seen : bool array;            (* scratch for analyze *)
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  mutable nvars : int;
  order : Heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable proof_buf : Buffer.t option;  (* DRAT trace when logging is on *)
  mutable simp_trail_size : int;  (* level-0 trail length at last simplify *)
  mutable default_polarity : bool;
  mutable model_ : bool array option;
  mutable max_learnts : int;
  (* statistics *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt_clauses : int;
  mutable n_learnt_lits : int;
  mutable n_deleted : int;
  mutable n_otf_subsumed : int;
  mutable lbd_sum : int;
  lbd_counts : int array;
  (* progress telemetry, armed per solve call *)
  mutable progress_stride : int;
  mutable next_progress_at : int;
}

let create ?(config = default_config) () =
  let rec t =
    lazy
      {
        cfg = config;
        clauses = Vec.create ();
        learnts = Vec.create ();
        watches = [||];
        assigns = [||];
        levels = [||];
        reasons = [||];
        activity = [||];
        polarity = [||];
        seen = [||];
        trail = Vec.create ();
        trail_lim = Vec.create ();
        qhead = 0;
        nvars = 0;
        order = Heap.create ~score:(fun v -> (Lazy.force t).activity.(v));
        var_inc = 1.0;
        cla_inc = 1.0;
        ok = true;
        proof_buf = None;
        simp_trail_size = -1;
        default_polarity = false;
        model_ = None;
        max_learnts = config.max_learnts;
        n_conflicts = 0;
        n_decisions = 0;
        n_propagations = 0;
        n_restarts = 0;
        n_learnt_clauses = 0;
        n_learnt_lits = 0;
        n_deleted = 0;
        n_otf_subsumed = 0;
        lbd_sum = 0;
        lbd_counts = Array.make lbd_bins 0;
        progress_stride = 0;
        next_progress_at = max_int;
      }
  in
  Lazy.force t

let num_vars t = t.nvars

let grow_arrays t n =
  let cap = Array.length t.assigns in
  if n > cap then begin
    let cap' = max n (max 16 (2 * cap)) in
    let grow a default =
      let a' = Array.make cap' default in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.assigns <- grow t.assigns v_undef;
    t.levels <- grow t.levels 0;
    t.reasons <- grow t.reasons None;
    t.activity <- grow t.activity 0.0;
    t.polarity <- grow t.polarity t.default_polarity;
    t.seen <- grow t.seen false;
    let w' = Array.init (2 * cap') (fun i ->
        if i < Array.length t.watches then t.watches.(i) else Vec.create ())
    in
    t.watches <- w'
  end

let new_var t =
  let v = t.nvars in
  grow_arrays t (v + 1);
  t.nvars <- v + 1;
  t.polarity.(v) <- t.default_polarity;
  Heap.insert t.order v;
  v

let ensure_vars t n = while t.nvars < n do ignore (new_var t) done

let set_default_polarity t b = t.default_polarity <- b

(* --- DRAT proof logging ----------------------------------------------- *)

let proof t =
  match t.proof_buf with Some b -> Buffer.contents b | None -> ""

let log_lits t prefix lits =
  match t.proof_buf with
  | None -> ()
  | Some buf ->
    Buffer.add_string buf prefix;
    Array.iter
      (fun l ->
        Buffer.add_string buf (string_of_int (Lit.to_int l));
        Buffer.add_char buf ' ')
      lits;
    Buffer.add_string buf "0\n"

let log_add t lits = log_lits t "" lits
let log_delete t lits = log_lits t "d " lits
let log_empty t = log_lits t "" [||]

let enable_proof_logging t =
  if t.proof_buf = None then begin
    t.proof_buf <- Some (Buffer.create 4096);
    (* Top-level assignments made before logging started are unit
       consequences of the clauses added so far; emit them now so that
       later deletions of clauses they satisfy remain checkable. *)
    if Vec.length t.trail_lim = 0 then
      Vec.iter (fun l -> log_add t [| l |]) t.trail
  end

let append_proof t text =
  (* Injects an externally derived DRAT prefix (the preprocessor's
     trace) into the trace, so the combined proof checks against the
     original, unsimplified clause set. No-op unless logging is on. *)
  match t.proof_buf with
  | None -> ()
  | Some buf -> Buffer.add_string buf text

let lit_value t l =
  let a = t.assigns.(Lit.var l) in
  if a = v_undef then v_undef else if a = l land 1 then 1 else 0
(* 1 = true, 0 = false, v_undef = unassigned *)

let decision_level t = Vec.length t.trail_lim

(* --- Activity ------------------------------------------------------- *)

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Heap.decrease t.order v

let bump_clause t c =
  c.act <- c.act +. t.cla_inc;
  if c.act > 1e20 then begin
    Vec.iter (fun c -> c.act <- c.act *. 1e-20) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay_activities t =
  t.var_inc <- t.var_inc /. t.cfg.var_decay;
  t.cla_inc <- t.cla_inc /. t.cfg.cla_decay

(* --- Assignment / trail --------------------------------------------- *)

let enqueue t l reason =
  let v = Lit.var l in
  t.assigns.(v) <- l land 1;
  t.levels.(v) <- decision_level t;
  t.reasons.(v) <- reason;
  (* Every top-level assignment is a unit consequence of the current
     clause set; record it so later strengthenings check as RUP. *)
  if decision_level t = 0 && t.proof_buf <> None then log_add t [| l |];
  Vec.push t.trail l

let backtrack t level =
  if decision_level t > level then begin
    let bound = Vec.get t.trail_lim level in
    for i = Vec.length t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      t.assigns.(v) <- v_undef;
      t.polarity.(v) <- Lit.sign l;
      t.reasons.(v) <- None;
      if not (Heap.in_heap t.order v) then Heap.insert t.order v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim level;
    t.qhead <- Vec.length t.trail
  end

(* --- Watches --------------------------------------------------------- *)

let attach t c =
  (* Clause watches its first two literals; it is registered under the
     negation of each watch so that assigning that negation true visits it. *)
  Vec.push t.watches.(Lit.negate c.lits.(0)) c;
  Vec.push t.watches.(Lit.negate c.lits.(1)) c

let propagate t =
  let conflict = ref None in
  while !conflict = None && t.qhead < Vec.length t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let ws = t.watches.(p) in
    let n = Vec.length ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if c.deleted then () (* drop lazily *)
      else if !conflict <> None then begin
        Vec.set ws !j c;
        incr j
      end
      else begin
        let false_lit = Lit.negate p in
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        (* Now lits.(1) = false_lit. *)
        if lit_value t c.lits.(0) = 1 then begin
          (* Clause satisfied: keep the watch. *)
          Vec.set ws !j c;
          incr j
        end
        else begin
          (* Look for a non-false literal to watch instead. *)
          let len = Array.length c.lits in
          let rec find k = if k >= len then -1 else if lit_value t c.lits.(k) <> 0 then k else find (k + 1) in
          let k = find 2 in
          if k >= 0 then begin
            c.lits.(1) <- c.lits.(k);
            c.lits.(k) <- false_lit;
            Vec.push t.watches.(Lit.negate c.lits.(1)) c
            (* watch moved: do not keep in ws *)
          end
          else begin
            (* Unit or conflicting. *)
            Vec.set ws !j c;
            incr j;
            if lit_value t c.lits.(0) = 0 then conflict := Some c
            else enqueue t c.lits.(0) (Some c)
          end
        end
      end
    done;
    (* Compact the watch list. *)
    Vec.shrink ws !j
  done;
  !conflict

(* --- Conflict analysis ----------------------------------------------- *)

let analyze t confl =
  (* First-UIP learning with local minimization. Returns the learnt
     clause (asserting literal first) and the backjump level. *)
  let learnt = Vec.create () in
  Vec.push learnt 0 (* placeholder for the asserting literal *);
  let counter = ref 0 in
  let p = ref (-1) in
  let c = ref confl in
  let trail_idx = ref (Vec.length t.trail - 1) in
  let continue_loop = ref true in
  while !continue_loop do
    bump_clause t !c;
    if !c.learnt && !c.lbd > 2 then begin
      (* Glucose-style: refresh the LBD of used learnt clauses. *)
      let levels = Hashtbl.create 8 in
      Array.iter (fun l -> Hashtbl.replace levels t.levels.(Lit.var l) ()) !c.lits;
      !c.lbd <- Hashtbl.length levels
    end;
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = Lit.var q in
          if (not t.seen.(v)) && t.levels.(v) > 0 then begin
            t.seen.(v) <- true;
            bump_var t v;
            if t.levels.(v) >= decision_level t then incr counter
            else Vec.push learnt q
          end
        end)
      !c.lits;
    (* Select next literal to expand: last seen literal on the trail. *)
    while not t.seen.(Lit.var (Vec.get t.trail !trail_idx)) do
      decr trail_idx
    done;
    let pl = Vec.get t.trail !trail_idx in
    decr trail_idx;
    t.seen.(Lit.var pl) <- false;
    decr counter;
    p := pl;
    if !counter = 0 then continue_loop := false
    else
      c :=
        (match t.reasons.(Lit.var pl) with
        | Some cl -> cl
        | None -> assert false)
  done;
  Vec.set learnt 0 (Lit.negate !p);
  (* Local minimization: drop literals implied by the rest. *)
  let redundant q =
    match t.reasons.(Lit.var q) with
    | None -> false
    | Some cl ->
      Array.for_all
        (fun l ->
          l = Lit.negate q || t.seen.(Lit.var l) || t.levels.(Lit.var l) = 0)
        cl.lits
  in
  Vec.iter (fun q -> t.seen.(Lit.var q) <- true) learnt;
  let kept = Vec.create () in
  Vec.iteri
    (fun i q -> if i = 0 || not (redundant q) then Vec.push kept q)
    learnt;
  Vec.iter (fun q -> t.seen.(Lit.var q) <- false) learnt;
  (* Backjump level: max level among kept literals after the first. *)
  let btlevel = ref 0 in
  let swap_pos = ref 1 in
  Vec.iteri
    (fun i q ->
      if i > 0 then begin
        let lv = t.levels.(Lit.var q) in
        if lv > !btlevel then begin
          btlevel := lv;
          swap_pos := i
        end
      end)
    kept;
  (* Put a highest-level literal in position 1 (second watch). *)
  if Vec.length kept > 1 then begin
    let tmp = Vec.get kept 1 in
    Vec.set kept 1 (Vec.get kept !swap_pos);
    Vec.set kept !swap_pos tmp
  end;
  let lits = Vec.to_array kept in
  let levels = Hashtbl.create 8 in
  Array.iter (fun l -> Hashtbl.replace levels t.levels.(Lit.var l) ()) lits;
  let clause =
    { lits; learnt = true; act = 0.0; lbd = Hashtbl.length levels;
      deleted = false }
  in
  (clause, !btlevel)

(* --- Clause management ----------------------------------------------- *)

let add_clause t lits =
  assert (decision_level t = 0);
  Metrics.incr m_clauses_added;
  t.model_ <- None;
  if t.ok then begin
    List.iter (fun l -> ensure_vars t (Lit.var l + 1)) lits;
    (* Sort, dedup, drop level-0-false literals, detect tautologies and
       level-0-true literals. *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (Lit.negate l) lits) lits
      || List.exists (fun l -> lit_value t l = 1 && t.levels.(Lit.var l) = 0) lits
    in
    if not tautology then begin
      let lits =
        List.filter
          (fun l -> not (lit_value t l = 0 && t.levels.(Lit.var l) = 0))
          lits
      in
      match lits with
      | [] ->
        t.ok <- false;
        log_empty t
      | [ l ] ->
        enqueue t l None;
        log_add t [| l |];
        if propagate t <> None then begin
          t.ok <- false;
          log_empty t
        end
      | _ ->
        let c =
          { lits = Array.of_list lits; learnt = false; act = 0.0; lbd = 0;
            deleted = false }
        in
        Vec.push t.clauses c;
        attach t c
    end
  end

let okay t = t.ok

(* Level-0 simplification: remove satisfied clauses and false literals,
   then rebuild every watch list. Called between restarts only. *)
let simplify t =
  assert (decision_level t = 0);
  let simplify_vec vec =
    Vec.filter_in_place
      (fun c ->
        if c.deleted then false
        else if Array.exists (fun l -> lit_value t l = 1) c.lits then begin
          c.deleted <- true;
          log_delete t c.lits;
          false
        end
        else begin
          let keep = Array.to_list c.lits |> List.filter (fun l -> lit_value t l <> 0) in
          (match keep with
          | [] ->
            t.ok <- false;
            log_empty t
          | [ l ] ->
            log_add t [| l |];
            enqueue t l None;
            log_delete t c.lits;
            c.deleted <- true
          | _ ->
            if List.length keep < Array.length c.lits then begin
              let old = c.lits in
              c.lits <- Array.of_list keep;
              log_add t c.lits;
              log_delete t old
            end);
          not c.deleted
        end)
      vec
  in
  simplify_vec t.clauses;
  simplify_vec t.learnts;
  (* Rebuild watches from scratch. *)
  Array.iter Vec.clear t.watches;
  Vec.iter (fun c -> attach t c) t.clauses;
  Vec.iter (fun c -> attach t c) t.learnts;
  if t.ok && propagate t <> None then begin
    t.ok <- false;
    log_empty t
  end

let reduce_db t =
  (* Keep glue clauses (lbd <= 2); delete the worse half of the rest,
     ordered by LBD then activity. *)
  let arr = Vec.to_array t.learnts in
  let removable =
    Array.to_list arr |> List.filter (fun c -> c.lbd > 2 && not c.deleted)
  in
  let sorted =
    List.sort
      (fun c1 c2 ->
        let c = Int.compare c2.lbd c1.lbd in
        if c <> 0 then c else Float.compare c1.act c2.act)
      removable
  in
  let to_delete = List.length sorted / 2 in
  Metrics.incr m_db_reductions;
  Metrics.add m_deleted_clauses to_delete;
  List.iteri
    (fun i c ->
      if i < to_delete then begin
        c.deleted <- true;
        log_delete t c.lits;
        t.n_deleted <- t.n_deleted + 1
      end)
    sorted;
  Vec.filter_in_place (fun c -> not c.deleted) t.learnts

(* --- Search ----------------------------------------------------------- *)

let luby y x =
  (* Luby sequence value for index x (1-based internally). *)
  let rec find_size size seq =
    if size >= x + 1 then (size, seq) else find_size ((2 * size) + 1) (seq + 1)
  in
  let rec loop size seq x =
    if size - 1 = x then (seq, x)
    else
      let size' = (size - 1) / 2 in
      let x' = x mod size' in
      loop size' (seq - 1) x'
  in
  let size, seq = find_size 1 0 in
  let seq, _ = loop size seq x in
  y ** float_of_int seq

exception Unsat_exn
exception Sat_exn

let pick_branch_var t =
  let rec loop () =
    match Heap.remove_max t.order with
    | None -> None
    | Some v -> if t.assigns.(v) = v_undef then Some v else loop ()
  in
  loop ()

let progress_of t =
  {
    p_conflicts = t.n_conflicts;
    p_decisions = t.n_decisions;
    p_propagations = t.n_propagations;
    p_restarts = t.n_restarts;
    p_learnts = Vec.length t.learnts;
    p_lbd_avg =
      (if t.n_learnt_clauses = 0 then 0.0
       else float_of_int t.lbd_sum /. float_of_int t.n_learnt_clauses);
    p_decision_level = decision_level t;
  }

let emit_progress_sample p =
  if Tracing.is_enabled () then
    Tracing.counter "sat.progress"
      [
        ("conflicts", float_of_int p.p_conflicts);
        ("restarts", float_of_int p.p_restarts);
        ("learnts", float_of_int p.p_learnts);
        ("lbd_avg", p.p_lbd_avg);
        ("decision_level", float_of_int p.p_decision_level);
      ]

let progress_tick t =
  t.next_progress_at <- t.n_conflicts + t.progress_stride;
  let p = progress_of t in
  emit_progress_sample p;
  match Atomic.get progress_callback with Some cb -> cb p | None -> ()

let search t assumptions budget =
  (* Returns Some result if decided within [budget] conflicts, None if the
     budget was exhausted (caller restarts). *)
  let conflicts_here = ref 0 in
  try
    while true do
      match propagate t with
      | Some confl ->
        t.n_conflicts <- t.n_conflicts + 1;
        incr conflicts_here;
        if decision_level t = 0 then begin
          t.ok <- false;
          log_empty t;
          raise Unsat_exn
        end;
        let learnt, btlevel = analyze t confl in
        log_add t learnt.lits;
        (* On-the-fly subsumption: a learnt clause whose literals all
           appear in the (learnt) conflict clause supersedes it. The
           conflicting clause is falsified, so it is no variable's
           reason and can be dropped immediately; the watch lists shed
           it lazily. The DRAT add above precedes the delete. *)
        if t.cfg.otf_subsume && confl.learnt && not confl.deleted
           && Array.length learnt.lits < Array.length confl.lits
           && Array.for_all
                (fun l -> Array.exists (fun m -> m = l) confl.lits)
                learnt.lits
        then begin
          confl.deleted <- true;
          log_delete t confl.lits;
          t.n_otf_subsumed <- t.n_otf_subsumed + 1;
          Metrics.incr m_otf_subsumed
        end;
        backtrack t btlevel;
        t.n_learnt_lits <- t.n_learnt_lits + Array.length learnt.lits;
        t.n_learnt_clauses <- t.n_learnt_clauses + 1;
        t.lbd_sum <- t.lbd_sum + learnt.lbd;
        t.lbd_counts.(min learnt.lbd (lbd_bins - 1)) <-
          t.lbd_counts.(min learnt.lbd (lbd_bins - 1)) + 1;
        Metrics.incr m_learnt_clauses;
        Metrics.observe_int m_lbd learnt.lbd;
        if t.n_conflicts >= t.next_progress_at then progress_tick t;
        (match learnt.lits with
        | [| l |] ->
          (* Unit learnt clause: assert at level 0. *)
          enqueue t l None
        | lits ->
          Vec.push t.learnts learnt;
          attach t learnt;
          enqueue t lits.(0) (Some learnt));
        decay_activities t;
        if !conflicts_here >= budget then begin
          backtrack t 0;
          raise Exit
        end
      | None ->
        if decision_level t < Array.length assumptions then begin
          (* Assert the next assumption. *)
          let p = assumptions.(decision_level t) in
          match lit_value t p with
          | 1 ->
            (* Already true: open a dummy level to keep indexing aligned. *)
            Vec.push t.trail_lim (Vec.length t.trail)
          | 0 -> raise Unsat_exn
          | _ ->
            Vec.push t.trail_lim (Vec.length t.trail);
            enqueue t p None
        end
        else begin
          match pick_branch_var t with
          | None -> raise Sat_exn
          | Some v ->
            t.n_decisions <- t.n_decisions + 1;
            Vec.push t.trail_lim (Vec.length t.trail);
            enqueue t (Lit.make v t.polarity.(v)) None
        end
    done;
    None
  with
  | Exit -> None
  | Sat_exn -> Some Sat
  | Unsat_exn -> Some Unsat

exception Out_of_budget

let solve_aux ?(assumptions = []) ?conflict_budget t =
  Tracing.with_span "sat.solve" @@ fun () ->
  Metrics.time m_solve_time @@ fun () ->
  Metrics.incr m_solve_calls;
  (* Arm the progress checkpoint for this call: a positive stride when
     a callback is installed or tracing is recording, [max_int]
     sentinel otherwise so the per-conflict check stays one compare. *)
  let stride =
    let i = Atomic.get progress_interval in
    if i > 0 then i
    else if Tracing.is_enabled () then default_trace_interval
    else 0
  in
  t.progress_stride <- stride;
  t.next_progress_at <- (if stride = 0 then max_int else t.n_conflicts + stride);
  let conflicts0 = t.n_conflicts
  and decisions0 = t.n_decisions
  and propagations0 = t.n_propagations
  and restarts0 = t.n_restarts
  and learnt_clauses0 = t.n_learnt_clauses
  and learnt_lits0 = t.n_learnt_lits in
  let sync_deltas () =
    Metrics.add m_conflicts (t.n_conflicts - conflicts0);
    Metrics.add m_decisions (t.n_decisions - decisions0);
    Metrics.add m_propagations (t.n_propagations - propagations0);
    Metrics.add m_restarts (t.n_restarts - restarts0);
    Metrics.add m_learnt_literals (t.n_learnt_lits - learnt_lits0);
    if stride > 0 then begin
      ignore (Atomic.fetch_and_add tot_solves 1);
      ignore (Atomic.fetch_and_add tot_conflicts (t.n_conflicts - conflicts0));
      ignore (Atomic.fetch_and_add tot_restarts (t.n_restarts - restarts0));
      ignore
        (Atomic.fetch_and_add tot_learnts (t.n_learnt_clauses - learnt_clauses0));
      (* End-of-solve sample: even a conflict-free solve leaves one
         data point per descent on the counter track. *)
      emit_progress_sample (progress_of t);
      t.progress_stride <- 0;
      t.next_progress_at <- max_int
    end
  in
  Fun.protect ~finally:sync_deltas @@ fun () ->
  t.model_ <- None;
  if not t.ok then Some Unsat
  else begin
    let deadline =
      match conflict_budget with
      | Some b -> t.n_conflicts + b
      | None -> max_int
    in
    let assumptions = Array.of_list assumptions in
    Array.iter (fun l -> ensure_vars t (Lit.var l + 1)) assumptions;
    let result = ref None in
    (try
       let restart = ref 0 in
       while !result = None do
         if !restart > 0 then t.n_restarts <- t.n_restarts + 1;
         backtrack t 0;
         if decision_level t = 0 then begin
           if Vec.length t.learnts > t.max_learnts then begin
             reduce_db t;
             t.max_learnts <-
               t.max_learnts
               + (t.max_learnts * t.cfg.max_learnts_growth_pct / 100)
           end;
           (* Simplifying rebuilds every watch list, so only do it when
              new top-level facts appeared — crucial for incremental use
              where thousands of blocking clauses accumulate. *)
           if Vec.length t.trail > t.simp_trail_size then begin
             simplify t;
             t.simp_trail_size <- Vec.length t.trail
           end;
           if not t.ok then result := Some Unsat
         end;
         if !result = None then begin
           if t.n_conflicts >= deadline then raise Out_of_budget;
           let budget =
             min
               (int_of_float
                  (float_of_int t.cfg.restart_base
                  *. luby t.cfg.restart_factor !restart))
               (max 1 (deadline - t.n_conflicts))
           in
           incr restart;
           result := search t assumptions budget
         end
       done
     with Out_of_budget -> ());
    (match !result with
    | Some Sat ->
      let m = Array.init t.nvars (fun v -> t.assigns.(v) = 0) in
      t.model_ <- Some m
    | _ -> ());
    backtrack t 0;
    !result
  end

let solve ?assumptions t =
  match solve_aux ?assumptions t with
  | Some r -> r
  | None -> assert false

let solve_limited ?assumptions ~conflict_budget t =
  solve_aux ?assumptions ~conflict_budget t

(* Wall-clock deadlines ride on the conflict-budget machinery: solve in
   budget slices, checking the clock between slices. Slices grow
   geometrically so long solves pay a vanishing slicing overhead while
   short timeouts still get checked early; learnt clauses persist
   across slices, so the sliced search is the same search. *)
let solve_with_timeout ?assumptions ~timeout_s t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let slice = ref 128 in
  let rec go () =
    if Unix.gettimeofday () >= deadline then None
    else
      match solve_aux ?assumptions ~conflict_budget:!slice t with
      | Some r -> Some r
      | None ->
        slice := min (!slice * 2) 1_048_576;
        go ()
  in
  go ()

let value t v =
  match t.model_ with
  | Some m when v < Array.length m -> m.(v)
  | Some _ -> invalid_arg "Solver.value: variable out of range"
  | None -> invalid_arg "Solver.value: no model available"

let model t =
  match t.model_ with
  | Some m -> Array.copy m
  | None -> invalid_arg "Solver.model: no model available"

(* Defined after the clause-manipulating code: the [lbd] field label
   would otherwise shadow [clause.lbd] for type inference. *)
type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  learnt_literals : int;
  deleted_clauses : int;
  otf_subsumed : int;
  lbd : (int * int) list;
}

let stats t =
  let lbd = ref [] in
  for i = lbd_bins - 1 downto 0 do
    if t.lbd_counts.(i) > 0 then lbd := (i, t.lbd_counts.(i)) :: !lbd
  done;
  {
    conflicts = t.n_conflicts;
    decisions = t.n_decisions;
    propagations = t.n_propagations;
    restarts = t.n_restarts;
    learnt_clauses = t.n_learnt_clauses;
    learnt_literals = t.n_learnt_lits;
    deleted_clauses = t.n_deleted;
    otf_subsumed = t.n_otf_subsumed;
    lbd = !lbd;
  }
