module Vec = Util.Vec

(* Observability (docs/OBSERVABILITY.md, "CNF preprocessor"). One
   simplify run is one preprocess.simplify span; the counters aggregate
   technique hits across runs, and the two histograms record per-run
   round counts and reconstruction-stack depths. *)
module Metrics = Util.Metrics
module Tracing = Util.Tracing

let m_time = Metrics.timer "preprocess.simplify"
let m_runs = Metrics.counter "preprocess.runs"
let m_clauses_in = Metrics.counter "preprocess.clauses_in"
let m_clauses_out = Metrics.counter "preprocess.clauses_out"
let m_eliminated = Metrics.counter "preprocess.eliminated_vars"
let m_fixed = Metrics.counter "preprocess.fixed_vars"
let m_subsumed = Metrics.counter "preprocess.subsumed_clauses"
let m_strengthened = Metrics.counter "preprocess.strengthened_clauses"
let m_equivalent = Metrics.counter "preprocess.equivalent_vars"
let m_resolvents = Metrics.counter "preprocess.resolvents"
let m_rounds = Metrics.histogram "preprocess.rounds"
let m_stack_depth = Metrics.histogram "preprocess.stack_depth"

type config = {
  subsumption : bool;
  self_subsumption : bool;
  bve : bool;
  big : bool;
  bve_growth : int;
  bve_max_occ : int;
  bve_max_elim : int;
  max_rounds : int;
}

let default =
  {
    subsumption = true;
    self_subsumption = true;
    bve = true;
    big = true;
    bve_growth = 0;
    bve_max_occ = 400;
    bve_max_elim = max_int;
    max_rounds = 3;
  }

type stats = {
  original_vars : int;
  original_clauses : int;
  original_literals : int;
  clauses : int;
  literals : int;
  eliminated_vars : int;
  fixed_vars : int;
  subsumed_clauses : int;
  strengthened_clauses : int;
  equivalent_vars : int;
  resolvents_added : int;
  rounds : int;
}

(* Clauses are sorted deduplicated literal arrays. [csig] is a 62-bit
   variable signature: a cheap necessary condition for [c ⊆ d] is
   [csig c land lnot (csig d) = 0]. *)
type cls = {
  mutable lits : int array;
  mutable deleted : bool;
  mutable csig : int;
  mutable in_queue : bool;
}

let v_undef = -1

type t = {
  cfg : config;
  nvars : int;
  frozen : int -> bool;
  arena : cls Vec.t;
  occ : int Vec.t array; (* literal -> indices into arena *)
  assigns : int array;   (* var -> v_undef | parity of the true literal *)
  eliminated : bool array;
  units : Lit.t Vec.t;   (* pending top-level units *)
  mutable uhead : int;
  queue : int Vec.t;     (* subsumption work queue (arena indices) *)
  mutable unsat : bool;
  mutable changed : bool;
  mutable orig_clauses : int;
  mutable orig_literals : int;
  (* Reconstruction stack, most recent elimination first: the variable
     and copies of the clauses in which it occurred positively. *)
  mutable stack : (int * int array list) list;
  drat : Buffer.t option;
  (* tallies *)
  mutable n_eliminated : int;
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_equivalent : int;
  mutable n_resolvents : int;
  mutable n_rounds : int;
}

(* --- DRAT ------------------------------------------------------------- *)

let log_lits t prefix lits =
  match t.drat with
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

(* --- Basics ----------------------------------------------------------- *)

let sig_of lits =
  Array.fold_left (fun s l -> s lor (1 lsl (Lit.var l mod 62))) 0 lits

let lit_value t l =
  let a = t.assigns.(Lit.var l) in
  if a = v_undef then v_undef else if a = l land 1 then 1 else 0

let contains c l =
  let lits = c.lits in
  let lo = ref 0 and hi = ref (Array.length lits - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = lits.(mid) in
    if x = l then found := true else if x < l then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* Walk the occurrence list of [l], dropping entries whose clause died
   or no longer contains [l]; [f] may delete or strengthen clauses, in
   which case their entries go stale and are dropped on the next walk. *)
let occ_iter t l f =
  let v = t.occ.(l) in
  let n = Vec.length v in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let idx = Vec.get v i in
    let c = Vec.get t.arena idx in
    if (not c.deleted) && contains c l then begin
      Vec.set v !j idx;
      incr j;
      f c
    end
  done;
  Vec.shrink v !j

let enqueue_subsumption t idx =
  let c = Vec.get t.arena idx in
  if not c.in_queue then begin
    c.in_queue <- true;
    Vec.push t.queue idx
  end

let push_unit t l = Vec.push t.units l

let refute t =
  if not t.unsat then begin
    t.unsat <- true;
    log_add t [||]
  end

(* Normalize a literal list: sort, dedup, detect tautologies (adjacent
   pos/neg of the same variable after sorting). *)
let normalize lits =
  let lits = List.sort_uniq compare lits in
  let arr = Array.of_list lits in
  let n = Array.length arr in
  let taut = ref false in
  for i = 0 to n - 2 do
    if arr.(i + 1) = arr.(i) lxor 1 then taut := true
  done;
  if !taut then None else Some arr

let new_clause t ?(log = false) lits =
  if log then log_add t lits;
  let idx = Vec.length t.arena in
  let c = { lits; deleted = false; csig = sig_of lits; in_queue = false } in
  Vec.push t.arena c;
  Array.iter (fun l -> Vec.push t.occ.(l) idx) lits;
  enqueue_subsumption t idx

(* --- Top-level unit propagation --------------------------------------- *)

let strengthen_by_unit t l c =
  (* Remove the false literal [Lit.negate l] from [c]. *)
  let keep = Array.of_list (List.filter (fun x -> x <> Lit.negate l) (Array.to_list c.lits)) in
  match Array.length keep with
  | 0 ->
    refute t;
    c.deleted <- true
  | 1 ->
    log_add t keep;
    push_unit t keep.(0);
    c.deleted <- true;
    log_delete t c.lits
  | _ ->
    log_add t keep;
    log_delete t c.lits;
    c.lits <- keep;
    c.csig <- sig_of keep;
    (* Re-find our own index for the queue: cheaper to re-enqueue via a
       scan-free path — strengthenings are rare enough that a linear
       backlink is not worth carrying, so walk the occ list of the
       first kept literal. *)
    let v = t.occ.(keep.(0)) in
    let n = Vec.length v in
    let rec find i =
      if i >= n then ()
      else if Vec.get t.arena (Vec.get v i) == c then enqueue_subsumption t (Vec.get v i)
      else find (i + 1)
    in
    find 0

let propagate_units t =
  while (not t.unsat) && t.uhead < Vec.length t.units do
    let l = Vec.get t.units t.uhead in
    t.uhead <- t.uhead + 1;
    match lit_value t l with
    | 1 -> ()
    | 0 -> refute t
    | _ ->
      t.assigns.(Lit.var l) <- l land 1;
      t.changed <- true;
      (* Clauses satisfied by [l] disappear. *)
      occ_iter t l (fun c ->
          c.deleted <- true;
          log_delete t c.lits);
      Vec.clear t.occ.(l);
      (* Clauses containing the false literal lose it. *)
      occ_iter t (Lit.negate l) (fun c -> strengthen_by_unit t l c);
      Vec.clear t.occ.(Lit.negate l)
  done

(* --- Subsumption / self-subsuming resolution --------------------------- *)

(* [subset_flip c d flip]: every literal of [c] — with [flip] replaced
   by its negation — occurs in [d]. [flip = -1] is plain subsumption.
   Both literal arrays are sorted, but the flipped literal breaks the
   order, so membership goes through binary search on [d]. *)
let subset_flip c d flip =
  Array.for_all
    (fun l ->
      let l = if l = flip then Lit.negate l else l in
      contains d l)
    c.lits

let min_occ_lit t c =
  let best = ref c.lits.(0) in
  Array.iter
    (fun l -> if Vec.length t.occ.(l) < Vec.length t.occ.(!best) then best := l)
    c.lits;
  !best

let backward_subsume t c =
  let nc = Array.length c.lits in
  let pivot = min_occ_lit t c in
  occ_iter t pivot (fun d ->
      if d != c && (not d.deleted) && Array.length d.lits >= nc
         && c.csig land lnot d.csig = 0
         && subset_flip c d (-1)
      then begin
        d.deleted <- true;
        log_delete t d.lits;
        t.n_subsumed <- t.n_subsumed + 1;
        t.changed <- true
      end)

let self_subsume t c =
  let nc = Array.length c.lits in
  Array.iter
    (fun l ->
      if not c.deleted then
        occ_iter t (Lit.negate l) (fun d ->
            if d != c && (not d.deleted) && Array.length d.lits >= nc
               && c.csig land lnot d.csig = 0
               && subset_flip c d l
            then begin
              (* d is strengthened by resolving with c on l. *)
              let keep =
                Array.of_list
                  (List.filter (fun x -> x <> Lit.negate l) (Array.to_list d.lits))
              in
              t.n_strengthened <- t.n_strengthened + 1;
              t.changed <- true;
              match Array.length keep with
              | 0 ->
                refute t;
                d.deleted <- true
              | 1 ->
                log_add t keep;
                push_unit t keep.(0);
                d.deleted <- true;
                log_delete t d.lits
              | _ ->
                log_add t keep;
                log_delete t d.lits;
                d.lits <- keep;
                d.csig <- sig_of keep;
                let v = t.occ.(keep.(0)) in
                let n = Vec.length v in
                let rec find i =
                  if i >= n then ()
                  else if Vec.get t.arena (Vec.get v i) == d then
                    enqueue_subsumption t (Vec.get v i)
                  else find (i + 1)
                in
                find 0
            end))
    c.lits

let subsumption_pass t =
  while (not t.unsat) && not (Vec.is_empty t.queue) do
    let idx = Vec.pop t.queue in
    let c = Vec.get t.arena idx in
    c.in_queue <- false;
    if not c.deleted then begin
      if t.cfg.subsumption then backward_subsume t c;
      if t.cfg.self_subsumption && not c.deleted then self_subsume t c;
      propagate_units t
    end
  done

(* --- Binary-implication-graph equivalent-literal substitution ---------- *)

(* The 2-clause implication graph: a binary clause (a ∨ b) contributes
   the edges ¬a → b and ¬b → a. Literals in one strongly connected
   component are pairwise equivalent; the components come in mirrored
   pairs (the SCC of the negations), and a component containing both a
   literal and its negation refutes the formula. Every non-frozen,
   non-representative variable of a component is substituted away:
   its occurrences are rewritten to the representative literal and the
   variable joins the reconstruction stack, exactly like a BVE
   elimination (the saved clause [v ∨ ¬r] makes [extend_model] copy
   r's value back into v). This is the twosat-style simplification the
   roadmap names; it feeds BVE smaller, more connected clauses. *)

(* Iterative Tarjan over the literal graph. Returns the SCC id of each
   literal (ids assigned in a deterministic order) or [||] when there
   are no binary clauses at all. *)
let literal_sccs nlits adj =
  let index = Array.make nlits (-1) in
  let lowlink = Array.make nlits 0 in
  let on_stack = Array.make nlits false in
  let comp = Array.make nlits (-1) in
  let stack = Vec.create () in
  let next_index = ref 0 and next_comp = ref 0 in
  (* Explicit DFS stack of (literal, next-adjacency-offset). *)
  let frames = Vec.create () in
  let push_lit l =
    index.(l) <- !next_index;
    lowlink.(l) <- !next_index;
    incr next_index;
    Vec.push stack l;
    on_stack.(l) <- true;
    Vec.push frames (l, 0)
  in
  for root = 0 to nlits - 1 do
    if index.(root) = -1 && adj.(root) <> [] then begin
      push_lit root;
      while not (Vec.is_empty frames) do
        let l, k = Vec.pop frames in
        let succs = adj.(l) in
        let n = List.length succs in
        if k < n then begin
          let s = List.nth succs k in
          Vec.push frames (l, k + 1);
          if index.(s) = -1 then push_lit s
          else if on_stack.(s) then
            lowlink.(l) <- min lowlink.(l) index.(s)
        end
        else begin
          if lowlink.(l) = index.(l) then begin
            let continue_pop = ref true in
            while !continue_pop do
              let w = Vec.pop stack in
              on_stack.(w) <- false;
              comp.(w) <- !next_comp;
              if w = l then continue_pop := false
            done;
            incr next_comp
          end;
          if not (Vec.is_empty frames) then begin
            let p, pk = Vec.pop frames in
            lowlink.(p) <- min lowlink.(p) lowlink.(l);
            Vec.push frames (p, pk)
          end
        end
      done
    end
  done;
  (comp, !next_comp)

(* Substitute literal [from_l] by [to_l] in every clause that contains
   it (and symmetrically ¬from_l by ¬to_l). The rewritten clause is RUP
   against the original plus the equivalence binary (¬from_l ∨ to_l) /
   (from_l ∨ ¬to_l), which the caller has already logged. *)
let substitute_literal t from_l to_l =
  List.iter
    (fun (src, dst) ->
      occ_iter t src (fun c ->
          let rewritten =
            Array.to_list c.lits
            |> List.map (fun x -> if x = src then dst else x)
          in
          (match normalize rewritten with
          | None -> () (* tautology: the original just disappears *)
          | Some [||] -> refute t
          | Some [| u |] ->
            log_add t [| u |];
            push_unit t u
          | Some arr -> new_clause t ~log:true arr);
          c.deleted <- true;
          log_delete t c.lits);
      Vec.clear t.occ.(src))
    [ (from_l, to_l); (Lit.negate from_l, Lit.negate to_l) ]

let big_pass t =
  let nlits = 2 * t.nvars in
  if nlits = 0 then ()
  else begin
    (* Adjacency lists from the live binary clauses, in arena order so
       the SCC decomposition (and hence the substitution choices) is
       deterministic. *)
    let adj = Array.make nlits [] in
    let any = ref false in
    Vec.iter
      (fun c ->
        if (not c.deleted) && Array.length c.lits = 2 then begin
          let a = c.lits.(0) and b = c.lits.(1) in
          adj.(Lit.negate a) <- b :: adj.(Lit.negate a);
          adj.(Lit.negate b) <- a :: adj.(Lit.negate b);
          any := true
        end)
      t.arena;
    if !any then begin
      for l = 0 to nlits - 1 do
        adj.(l) <- List.rev adj.(l)
      done;
      let comp, ncomp = literal_sccs nlits adj in
      if ncomp > 0 then begin
        (* Group the literals of each component, in literal order. *)
        let members = Array.make ncomp [] in
        for l = nlits - 1 downto 0 do
          if comp.(l) >= 0 then members.(comp.(l)) <- l :: members.(comp.(l))
        done;
        (* A component holding both polarities of one variable refutes
           the formula: both units are RUP along the implication cycle,
           and together they give the empty clause. *)
        let contradicted = ref false in
        Array.iter
          (fun lits ->
            if not !contradicted then
              List.iter
                (fun l ->
                  if (not !contradicted) && List.mem (Lit.negate l) lits
                  then begin
                    contradicted := true;
                    log_add t [| Lit.negate l |];
                    log_add t [| l |];
                    refute t
                  end)
                lits)
          members;
        if not !contradicted then begin
          (* Plan the substitutions component by component: the
             representative is the smallest frozen literal when the
             component has one (frozen variables must survive), the
             smallest literal otherwise. Each variable is handled at
             its positive literal only — the mirror component repeats
             the same equivalences negated. *)
          let plan = ref [] in
          Array.iter
            (fun lits ->
              match lits with
              | [] | [ _ ] -> ()
              | _ ->
                let live l =
                  let v = Lit.var l in
                  t.assigns.(v) = v_undef && not t.eliminated.(v)
                in
                let lits = List.filter live lits in
                let frozen_lits = List.filter (fun l -> t.frozen (Lit.var l)) lits in
                let rep =
                  match frozen_lits with f :: _ -> f | [] -> (
                    match lits with r :: _ -> r | [] -> -1)
                in
                if rep >= 0 then
                  List.iter
                    (fun l ->
                      if
                        Lit.sign l (* positive occurrence: var handled once *)
                        && l <> rep
                        && Lit.var l <> Lit.var rep
                        && not (t.frozen (Lit.var l))
                      then plan := (l, rep) :: !plan)
                    lits)
            members;
          let plan = List.rev !plan in
          (* Log every equivalence binary first, while the implication
             chains justifying them are all still present; then rewrite
             clause by clause (each rewrite is RUP against its original
             plus the pre-logged binaries). *)
          List.iter
            (fun (l, r) ->
              log_add t [| Lit.negate l; r |];
              log_add t [| l; Lit.negate r |])
            plan;
          List.iter
            (fun (l, r) ->
              if not t.unsat then begin
                let v = Lit.var l in
                (* v's value is r's under the replay of [extend_model]:
                   the saved positive-occurrence clause [v ∨ ¬r] forces
                   v exactly when r is true. *)
                t.stack <- (v, [ [| l; Lit.negate r |] ]) :: t.stack;
                substitute_literal t l r;
                t.eliminated.(v) <- true;
                t.n_equivalent <- t.n_equivalent + 1;
                t.changed <- true;
                propagate_units t
              end)
            plan
        end
      end
    end
  end

(* --- Bounded variable elimination -------------------------------------- *)

let resolve_on v c d =
  (* Resolvent of [c] (contains pos v) and [d] (contains neg v); [None]
     on tautology. Both inputs are sorted, so merge. *)
  let keep = ref [] in
  let taut = ref false in
  let add l =
    if l <> Lit.pos v && l <> Lit.neg v then keep := l :: !keep
  in
  Array.iter add c.lits;
  Array.iter add d.lits;
  let arr = Array.of_list (List.sort_uniq compare !keep) in
  for i = 0 to Array.length arr - 2 do
    if arr.(i + 1) = arr.(i) lxor 1 then taut := true
  done;
  if !taut then None else Some arr

let try_eliminate t v =
  if
    t.frozen v || t.eliminated.(v) || t.assigns.(v) <> v_undef
    || t.n_eliminated >= t.cfg.bve_max_elim
  then ()
  else begin
    let pos = ref [] and neg = ref [] in
    occ_iter t (Lit.pos v) (fun c -> pos := c :: !pos);
    occ_iter t (Lit.neg v) (fun c -> neg := c :: !neg);
    let pos = !pos and neg = !neg in
    let np = List.length pos and nn = List.length neg in
    let total = np + nn in
    if total = 0 || total > t.cfg.bve_max_occ then ()
    else begin
      (* Distribute: the elimination is admitted when the resolvent set
         is no larger than the clause set it replaces. *)
      let bound = total + t.cfg.bve_growth in
      let resolvents = ref [] in
      let count = ref 0 in
      let aborted = ref false in
      List.iter
        (fun c ->
          if not !aborted then
            List.iter
              (fun d ->
                if not !aborted then
                  match resolve_on v c d with
                  | None -> ()
                  | Some r ->
                    incr count;
                    if !count > bound then aborted := true
                    else resolvents := r :: !resolvents)
              neg)
        pos;
      if not !aborted then begin
        (* Additions before deletions, so every resolvent checks as RUP
           against the clauses it was distributed from. *)
        List.iter
          (fun r ->
            t.n_resolvents <- t.n_resolvents + 1;
            match Array.length r with
            | 1 ->
              log_add t r;
              push_unit t r.(0)
            | _ -> new_clause t ~log:true r)
          (List.rev !resolvents);
        t.stack <-
          (v, List.map (fun c -> Array.copy c.lits) pos) :: t.stack;
        List.iter
          (fun c ->
            c.deleted <- true;
            log_delete t c.lits)
          pos;
        List.iter
          (fun c ->
            c.deleted <- true;
            log_delete t c.lits)
          neg;
        Vec.clear t.occ.(Lit.pos v);
        Vec.clear t.occ.(Lit.neg v);
        t.eliminated.(v) <- true;
        t.n_eliminated <- t.n_eliminated + 1;
        t.changed <- true;
        propagate_units t
      end
    end
  end

let bve_pass t =
  (* Cheapest variables first: elimination cost (and likelihood of
     admission) grows with the occurrence count. *)
  let order = Array.init t.nvars (fun v -> v) in
  let cost v = Vec.length t.occ.(Lit.pos v) + Vec.length t.occ.(Lit.neg v) in
  Array.sort (fun a b -> Int.compare (cost a) (cost b)) order;
  Array.iter (fun v -> if not t.unsat then try_eliminate t v) order

(* --- Driver ------------------------------------------------------------ *)

let simplify ?(config = default) ?(drat = false) ~nvars ~frozen clauses =
  Tracing.with_span "preprocess.simplify" @@ fun () ->
  Metrics.time m_time @@ fun () ->
  Metrics.incr m_runs;
  let t =
    {
      cfg = config;
      nvars;
      frozen;
      arena = Vec.create ();
      occ = Array.init (2 * nvars) (fun _ -> Vec.create ());
      assigns = Array.make (max 1 nvars) v_undef;
      eliminated = Array.make (max 1 nvars) false;
      units = Vec.create ();
      uhead = 0;
      queue = Vec.create ();
      unsat = false;
      changed = false;
      orig_clauses = 0;
      orig_literals = 0;
      stack = [];
      drat = (if drat then Some (Buffer.create 1024) else None);
      n_eliminated = 0;
      n_subsumed = 0;
      n_strengthened = 0;
      n_equivalent = 0;
      n_resolvents = 0;
      n_rounds = 0;
    }
  in
  t.orig_clauses <- List.length clauses;
  t.orig_literals <- List.fold_left (fun acc c -> acc + List.length c) 0 clauses;
  Metrics.add m_clauses_in t.orig_clauses;
  (* Load: tautologies vanish, units feed the propagation queue,
     everything else enters the arena (and the subsumption queue). *)
  List.iter
    (fun lits ->
      match normalize lits with
      | None -> ()
      | Some [||] -> refute t
      | Some [| l |] -> push_unit t l
      | Some arr -> new_clause t arr)
    clauses;
  propagate_units t;
  let continue_ = ref (not t.unsat) in
  while !continue_ && t.n_rounds < t.cfg.max_rounds do
    t.n_rounds <- t.n_rounds + 1;
    t.changed <- false;
    if t.cfg.subsumption || t.cfg.self_subsumption then subsumption_pass t;
    if (not t.unsat) && t.cfg.big then big_pass t;
    if (not t.unsat) && t.cfg.bve then bve_pass t;
    propagate_units t;
    continue_ := t.changed && not t.unsat
  done;
  Metrics.add m_eliminated t.n_eliminated;
  Metrics.add m_subsumed t.n_subsumed;
  Metrics.add m_strengthened t.n_strengthened;
  Metrics.add m_equivalent t.n_equivalent;
  Metrics.add m_resolvents t.n_resolvents;
  Metrics.observe_int m_rounds t.n_rounds;
  Metrics.observe_int m_stack_depth t.n_eliminated;
  let fixed = ref 0 in
  Array.iter (fun a -> if a <> v_undef then incr fixed) t.assigns;
  Metrics.add m_fixed !fixed;
  let out = ref 0 in
  Vec.iter (fun c -> if not c.deleted then incr out) t.arena;
  Metrics.add m_clauses_out (if t.unsat then 1 else !out + !fixed);
  t

let unsat t = t.unsat
let nvars t = t.nvars
let is_eliminated t v = v >= 0 && v < t.nvars && t.eliminated.(v)

let clauses t =
  if t.unsat then [ [] ]
  else begin
    let acc = ref [] in
    Vec.iter
      (fun c -> if not c.deleted then acc := Array.to_list c.lits :: !acc)
      t.arena;
    let acc = List.rev !acc in
    let units = ref [] in
    for v = t.nvars - 1 downto 0 do
      if t.assigns.(v) <> v_undef then
        units := [ Lit.make v (t.assigns.(v) = 0) ] :: !units
    done;
    !units @ acc
  end

let extend_model t m =
  let m =
    if Array.length m >= t.nvars then Array.copy m
    else Array.init t.nvars (fun v -> v < Array.length m && m.(v))
  in
  let lit_true l = if Lit.sign l then m.(Lit.var l) else not m.(Lit.var l) in
  (* Reverse elimination order (stack head = last eliminated): a saved
     clause mentions only variables still live at its elimination time,
     so each step only depends on values fixed before it. *)
  List.iter
    (fun (v, pos_clauses) ->
      let needs_true =
        List.exists
          (fun cl ->
            not (Array.exists (fun l -> Lit.var l <> v && lit_true l) cl))
          pos_clauses
      in
      m.(v) <- needs_true)
    t.stack;
  m

let stats t =
  let clauses_out = ref 0 and literals_out = ref 0 in
  Vec.iter
    (fun c ->
      if not c.deleted then begin
        incr clauses_out;
        literals_out := !literals_out + Array.length c.lits
      end)
    t.arena;
  let fixed = ref 0 in
  Array.iter (fun a -> if a <> v_undef then incr fixed) t.assigns;
  {
    original_vars = t.nvars;
    original_clauses = t.orig_clauses;
    original_literals = t.orig_literals;
    clauses = (if t.unsat then 1 else !clauses_out + !fixed);
    literals = (if t.unsat then 0 else !literals_out + !fixed);
    eliminated_vars = t.n_eliminated;
    fixed_vars = !fixed;
    subsumed_clauses = t.n_subsumed;
    strengthened_clauses = t.n_strengthened;
    equivalent_vars = t.n_equivalent;
    resolvents_added = t.n_resolvents;
    rounds = t.n_rounds;
  }

let proof t = match t.drat with Some b -> Buffer.contents b | None -> ""

let pp_stats ppf s =
  Format.fprintf ppf
    "%d -> %d clauses (%d literals), %d eliminated, %d fixed, %d subsumed, %d \
     strengthened, %d equivalent, %d rounds"
    s.original_clauses s.clauses s.literals s.eliminated_vars s.fixed_vars
    s.subsumed_clauses s.strengthened_clauses s.equivalent_vars s.rounds
