(* Observability (docs/OBSERVABILITY.md, "CNF preprocessor"). One
   simplify run is one preprocess.simplify span; the counters aggregate
   technique hits across runs, and the two histograms record per-run
   round counts and reconstruction-stack depths. *)
module Metrics = Util.Metrics
module Tracing = Util.Tracing

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

(* The reconstruction stack as one flat array of entries, oldest first,
   each [lits of clause 1 .. lits of clause k; len_1 .. len_k; k; v]:
   the k clauses in which variable v occurred positively when it was
   eliminated (one [v ∨ ¬r] clause for a substitution by r). An entry
   ends in its variable, so the stack is read from the end. *)
type reconstruction = { width : int; stack : int array }

(* What a run leaves: the output clauses as [len; lits] records, unit
   clauses of the fixed variables first, then the surviving clauses in
   creation order. *)
type t = {
  unsat : bool;
  output : int array;
  stats : stats;
  proof : string;
  recon : reconstruction;
}

(* --- Working state of one run ----------------------------------------- *)

(* A growable int array. The clause store, the clause headers, the
   work lists and the stack are all of this shape, so a run allocates
   only when one of them has to grow. *)
type buf = { mutable a : int array; mutable n : int }

let buf cap = { a = Array.make cap 0; n = 0 }

let reserve b k =
  if b.n + k > Array.length b.a then begin
    let a' = Array.make (max (b.n + k) (2 * Array.length b.a)) 0 in
    Array.blit b.a 0 a' 0 b.n;
    b.a <- a'
  end

let push b x =
  if b.n = Array.length b.a then reserve b 1;
  Array.unsafe_set b.a b.n x;
  b.n <- b.n + 1

(* Clauses are sorted, deduplicated literal runs in [store], numbered
   and laid out in creation order; a strengthened clause keeps its
   number and shrinks in place, and the runs of deleted clauses are
   squeezed out when the store fills. Per clause [c]: the offset of its
   literals, their number, a 62-bit variable signature (a cheap
   necessary condition for [c ⊆ d] is [csig c land lnot (csig d) = 0])
   and flag bits. *)
let deleted_bit = 1
let queued_bit = 2
let shrunk_bit = 4 (* strengthened at least once *)
let v_undef = -1

type state = {
  cfg : config;
  nvars : int;
  frozen : int -> bool;
  store : buf;
  start : buf;
  len : buf;
  csig : buf;
  flags : buf;
  (* literal -> its first [occ_n] entries are clauses that contained it
     (stale ones are dropped by the next walk) *)
  occ : int array array;
  occ_n : int array;
  assigns : int array;       (* var -> v_undef | parity of the true literal *)
  eliminated : Bytes.t;
  (* var -> a clause containing it was added, deleted or strengthened
     since its last failed elimination attempt (which would fail again) *)
  dirty : Bytes.t;
  units : buf;               (* pending top-level units *)
  mutable uhead : int;
  queue : buf;               (* subsumption work queue *)
  mutable unsat : bool;
  mutable changed : bool;
  stack : buf;               (* the reconstruction stack *)
  scratch : buf;             (* the clause being rewritten *)
  res : buf;                 (* [len; lits] resolvents of one elimination *)
  pos : buf;                 (* its clauses with the positive literal *)
  neg : buf;
  (* Tarjan's per-literal arrays, allocated by the first SCC pass and
     reused by later rounds *)
  mutable index : int array;
  mutable lowlink : int array;
  mutable comp : int array;
  drat : Buffer.t option;
  mutable n_eliminated : int;
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_equivalent : int;
  mutable n_resolvents : int;
  mutable n_rounds : int;
}

let nclauses st = st.start.n
let cstart st c = st.start.a.(c)
let clen st c = st.len.a.(c)
let csig st c = st.csig.a.(c)
let flags st c = st.flags.a.(c)
let set_flags st c f = st.flags.a.(c) <- f
let live st c = flags st c land deleted_bit = 0

(* --- DRAT ------------------------------------------------------------- *)

let log_lits st prefix a off n =
  match st.drat with
  | None -> ()
  | Some b ->
    Buffer.add_string b prefix;
    for i = off to off + n - 1 do
      Buffer.add_string b (string_of_int (Lit.to_int a.(i)));
      Buffer.add_char b ' '
    done;
    Buffer.add_string b "0\n"

let log_add st a off n = log_lits st "" a off n
let log_delete st c = log_lits st "d " st.store.a (cstart st c) (clen st c)

(* Callers building a literal array just to log it test this first. *)
let proving st = st.drat <> None

(* --- Basics ----------------------------------------------------------- *)

let lit_value st l =
  let a = st.assigns.(Lit.var l) in
  if a = v_undef then v_undef else if a = l land 1 then 1 else 0

let contains st c l =
  let a = st.store.a in
  let lo = ref (cstart st c) and hi = ref (cstart st c + clen st c - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = a.(mid) in
    if x = l then found := true else if x < l then lo := mid + 1 else hi := mid - 1
  done;
  !found

let touch st c =
  let a = st.store.a in
  for i = cstart st c to cstart st c + clen st c - 1 do
    Bytes.unsafe_set st.dirty (Lit.var a.(i)) '\001'
  done

let delete st c =
  touch st c;
  set_flags st c (flags st c lor deleted_bit)

let enqueue st c =
  let f = flags st c in
  if f land queued_bit = 0 then begin
    set_flags st c (f lor queued_bit);
    push st.queue c
  end

let refute st =
  if not st.unsat then begin
    st.unsat <- true;
    log_add st [||] 0 0
  end

let signature a off n =
  let s = ref 0 in
  for i = off to off + n - 1 do
    s := !s lor (1 lsl (Lit.var a.(i) mod 62))
  done;
  !s

let occ_push st l c =
  let n = st.occ_n.(l) in
  let a = st.occ.(l) in
  if n = Array.length a then begin
    let a' = Array.make (max 4 (2 * n)) 0 in
    Array.blit a 0 a' 0 n;
    a'.(n) <- c;
    st.occ.(l) <- a'
  end
  else a.(n) <- c;
  st.occ_n.(l) <- n + 1

(* Walk the occurrence list of [l], dropping entries whose clause died
   or no longer contains [l], and call [f st l arg c] on each clause [c]
   that is kept. [f] may delete or strengthen clauses, in which case
   their entries go stale and are dropped on the next walk; it never
   adds to the list being walked. *)
let occ_iter st l f arg =
  let a = st.occ.(l) in
  let n = st.occ_n.(l) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let c = a.(i) in
    let fl = flags st c in
    if fl land deleted_bit = 0 && (fl land shrunk_bit = 0 || contains st c l) then begin
      a.(!j) <- c;
      incr j;
      f st l arg c
    end
  done;
  st.occ_n.(l) <- !j

(* Makes room for [n] more literals in the store: squeezes out the runs
   of deleted clauses when they would leave it at most half full, and
   grows it otherwise. *)
let reserve_store st n =
  let b = st.store in
  if b.n + n > Array.length b.a then begin
    let used = ref 0 in
    for c = 0 to nclauses st - 1 do
      if live st c then used := !used + clen st c
    done;
    if 2 * (!used + n) > Array.length b.a then reserve b n
    else begin
      b.n <- 0;
      for c = 0 to nclauses st - 1 do
        if live st c then begin
          Array.blit b.a (cstart st c) b.a b.n (clen st c);
          st.start.a.(c) <- b.n;
          b.n <- b.n + clen st c
        end
      done
    end
  end

(* Appends [a.(off) .. a.(off+n-1)], sorted and deduplicated, to the
   store as clause number [nclauses st]; [a] is never the store itself. *)
let append st a off n =
  reserve_store st n;
  push st.start st.store.n;
  push st.len n;
  push st.csig (signature a off n);
  push st.flags 0;
  Array.blit a off st.store.a st.store.n n;
  st.store.n <- st.store.n + n

let new_clause st ?(log = false) a off n =
  if log then log_add st a off n;
  let c = nclauses st in
  append st a off n;
  for i = off to off + n - 1 do
    occ_push st a.(i) c;
    Bytes.unsafe_set st.dirty (Lit.var a.(i)) '\001'
  done;
  enqueue st c

(* Sorts [scratch.(0 .. n-1)] and drops duplicates in place: the new
   length, or -1 when the literals hold both polarities of a variable
   (complementary literals are adjacent once sorted). *)
let normalize_scratch st n =
  let a = st.scratch.a in
  let gap = ref (n / 2) in
  while !gap > 0 do
    for i = !gap to n - 1 do
      let x = a.(i) in
      let j = ref i in
      while !j >= !gap && a.(!j - !gap) > x do
        a.(!j) <- a.(!j - !gap);
        j := !j - !gap
      done;
      a.(!j) <- x
    done;
    gap := !gap / 2
  done;
  let k = ref 0 and taut = ref false in
  for i = 0 to n - 1 do
    let x = a.(i) in
    if !k = 0 || a.(!k - 1) <> x then begin
      if !k > 0 && a.(!k - 1) = x lxor 1 then taut := true;
      a.(!k) <- x;
      incr k
    end
  done;
  if !taut then -1 else !k

(* --- Top-level unit propagation --------------------------------------- *)

(* Removes literal [x] from clause [c]: a unit result is queued for
   propagation, anything longer shrinks in place and is queued for
   subsumption. *)
let strengthen st c x =
  touch st c;
  let s = st.store.a in
  reserve st.scratch (clen st c);
  let k = ref 0 in
  for i = cstart st c to cstart st c + clen st c - 1 do
    if s.(i) <> x then begin
      st.scratch.a.(!k) <- s.(i);
      incr k
    end
  done;
  match !k with
  | 0 ->
    refute st;
    delete st c
  | 1 ->
    log_add st st.scratch.a 0 1;
    push st.units st.scratch.a.(0);
    delete st c;
    log_delete st c
  | k ->
    log_add st st.scratch.a 0 k;
    log_delete st c;
    Array.blit st.scratch.a 0 s (cstart st c) k;
    st.len.a.(c) <- k;
    st.csig.a.(c) <- signature s (cstart st c) k;
    set_flags st c (flags st c lor shrunk_bit);
    enqueue st c

let satisfied st _l _ c =
  delete st c;
  log_delete st c

let falsified st l _ c = strengthen st c l

let propagate_units st =
  while (not st.unsat) && st.uhead < st.units.n do
    let l = st.units.a.(st.uhead) in
    st.uhead <- st.uhead + 1;
    match lit_value st l with
    | 1 -> ()
    | 0 -> refute st
    | _ ->
      st.assigns.(Lit.var l) <- l land 1;
      st.changed <- true;
      (* Clauses satisfied by [l] disappear; clauses containing the
         false literal lose it. *)
      occ_iter st l satisfied 0;
      st.occ_n.(l) <- 0;
      occ_iter st (Lit.negate l) falsified 0;
      st.occ_n.(Lit.negate l) <- 0
  done

(* --- Subsumption / self-subsuming resolution --------------------------- *)

(* Every literal of [c] — with [flip] replaced by its negation — occurs
   in [d]. [flip = -1] is plain subsumption. *)
let subset_flip st c d flip =
  let a = st.store.a in
  let ok = ref true and i = ref (cstart st c) in
  let stop = cstart st c + clen st c in
  while !ok && !i < stop do
    let l = a.(!i) in
    ok := contains st d (if l = flip then Lit.negate l else l);
    incr i
  done;
  !ok

let subsumes st c d =
  d <> c && live st d
  && clen st d >= clen st c
  && csig st c land lnot (csig st d) = 0

let subsumed st _pivot c d =
  if subsumes st c d && subset_flip st c d (-1) then begin
    delete st d;
    log_delete st d;
    st.n_subsumed <- st.n_subsumed + 1;
    st.changed <- true
  end

(* [d] contains [nl] and resolves with [c] on it to a subset of itself. *)
let strengthened st nl c d =
  if subsumes st c d && subset_flip st c d (Lit.negate nl) then begin
    st.n_strengthened <- st.n_strengthened + 1;
    st.changed <- true;
    strengthen st d nl
  end

let backward_subsume st c =
  let a = st.store.a in
  let pivot = ref a.(cstart st c) in
  for i = cstart st c to cstart st c + clen st c - 1 do
    if st.occ_n.(a.(i)) < st.occ_n.(!pivot) then pivot := a.(i)
  done;
  occ_iter st !pivot subsumed c

let self_subsume st c =
  for i = 0 to clen st c - 1 do
    if live st c then
      occ_iter st (Lit.negate st.store.a.(cstart st c + i)) strengthened c
  done

let subsumption_pass st =
  while (not st.unsat) && st.queue.n > 0 do
    st.queue.n <- st.queue.n - 1;
    let c = st.queue.a.(st.queue.n) in
    set_flags st c (flags st c land lnot queued_bit);
    if live st c then begin
      if st.cfg.subsumption then backward_subsume st c;
      if st.cfg.self_subsumption && live st c then self_subsume st c;
      propagate_units st
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

(* Iterative Tarjan over the literal graph in CSR form (the successors
   of [l] are [succ.(off.(l)) .. succ.(off.(l+1) - 1)]). Leaves in
   [st.comp] the SCC id of each visited literal (-1 for the others), ids
   in completion order, and returns the number of components. *)
let literal_sccs st nlits off succ =
  if Array.length st.comp = 0 then begin
    st.index <- Array.make nlits 0;
    st.lowlink <- Array.make nlits 0;
    st.comp <- Array.make nlits 0
  end;
  let index = st.index and lowlink = st.lowlink and comp = st.comp in
  Array.fill index 0 nlits (-1);
  Array.fill comp 0 nlits (-1);
  let on_stack = Bytes.make nlits '\000' in
  let stack = buf 64 in
  (* DFS frames: the literal and how many of its successors are done. *)
  let frame_lit = buf 64 and frame_k = buf 64 in
  let next_index = ref 0 and next_comp = ref 0 in
  let push_lit l =
    index.(l) <- !next_index;
    lowlink.(l) <- !next_index;
    incr next_index;
    push stack l;
    Bytes.set on_stack l '\001';
    push frame_lit l;
    push frame_k 0
  in
  for root = 0 to nlits - 1 do
    if index.(root) = -1 && off.(root + 1) > off.(root) then begin
      push_lit root;
      while frame_lit.n > 0 do
        let top = frame_lit.n - 1 in
        let l = frame_lit.a.(top) and k = frame_k.a.(top) in
        if off.(l) + k < off.(l + 1) then begin
          let s = succ.(off.(l) + k) in
          frame_k.a.(top) <- k + 1;
          if index.(s) = -1 then push_lit s
          else if Bytes.get on_stack s = '\001' then
            lowlink.(l) <- min lowlink.(l) index.(s)
        end
        else begin
          frame_lit.n <- top;
          frame_k.n <- top;
          if lowlink.(l) = index.(l) then begin
            let continue_pop = ref true in
            while !continue_pop do
              stack.n <- stack.n - 1;
              let w = stack.a.(stack.n) in
              Bytes.set on_stack w '\000';
              comp.(w) <- !next_comp;
              if w = l then continue_pop := false
            done;
            incr next_comp
          end;
          if top > 0 then begin
            let p = frame_lit.a.(top - 1) in
            lowlink.(p) <- min lowlink.(p) lowlink.(l)
          end
        end
      done
    end
  done;
  !next_comp

(* Rewrites clause [c], which contains [src], with [src] replaced by
   [dst]. The rewritten clause is RUP against the original plus the
   equivalence binaries, which the caller has already logged. *)
let rewritten st src dst c =
  let n = clen st c in
  reserve st.scratch n;
  let s = st.store.a in
  for i = 0 to n - 1 do
    let x = s.(cstart st c + i) in
    st.scratch.a.(i) <- (if x = src then dst else x)
  done;
  (match normalize_scratch st n with
  | -1 -> () (* tautology: the original just disappears *)
  | 0 -> refute st
  | 1 ->
    log_add st st.scratch.a 0 1;
    push st.units st.scratch.a.(0)
  | k -> new_clause st ~log:true st.scratch.a 0 k);
  delete st c;
  log_delete st c

(* Substitute literal [from_l] by [to_l] in every clause that contains
   it, and symmetrically ¬from_l by ¬to_l. *)
let substitute_literal st from_l to_l =
  occ_iter st from_l rewritten to_l;
  st.occ_n.(from_l) <- 0;
  occ_iter st (Lit.negate from_l) rewritten (Lit.negate to_l);
  st.occ_n.(Lit.negate from_l) <- 0

(* Buckets [0 .. n-1] in CSR form: bucket [b] holds
   [vals.(off.(b)) .. vals.(off.(b+1) - 1)], the values [pairs emit]
   emits for it, in emission order. [pairs] runs twice. *)
let csr n pairs =
  let off = Array.make (n + 1) 0 in
  pairs (fun b _ -> off.(b + 1) <- off.(b + 1) + 1);
  for b = 1 to n do
    off.(b) <- off.(b) + off.(b - 1)
  done;
  let vals = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  pairs (fun b x ->
      vals.(fill.(b)) <- x;
      fill.(b) <- fill.(b) + 1);
  (off, vals)

let big_pass st =
  let nlits = 2 * st.nvars in
  (* Adjacency from the live binary clauses, in clause order so the SCC
     decomposition (and hence the substitution choices) is
     deterministic. *)
  let off, succ =
    csr nlits (fun emit ->
        for c = 0 to nclauses st - 1 do
          if live st c && clen st c = 2 then begin
            let a = st.store.a.(cstart st c) and b = st.store.a.(cstart st c + 1) in
            emit (Lit.negate a) b;
            emit (Lit.negate b) a
          end
        done)
  in
  if Array.length succ > 0 then begin
    let ncomp = literal_sccs st nlits off succ in
    let comp = st.comp in
    (* The literals of each component, in literal order. *)
    let moff, members =
      csr ncomp (fun emit ->
          Array.iteri (fun l k -> if k >= 0 then emit k l) comp)
    in
    (* A component holding both polarities of one variable refutes the
       formula: both units are RUP along the implication cycle, and
       together they give the empty clause. *)
    let contradiction = ref (-1) in
    let i = ref 0 in
    while !contradiction < 0 && !i < Array.length members do
      let l = members.(!i) in
      if comp.(Lit.negate l) = comp.(l) then contradiction := l;
      incr i
    done;
    if !contradiction >= 0 then begin
      let l = !contradiction in
      if proving st then begin
        log_add st [| Lit.negate l |] 0 1;
        log_add st [| l |] 0 1
      end;
      refute st
    end
    else begin
      (* Plan the substitutions component by component: the
         representative is the smallest frozen literal when the
         component has one (frozen variables must survive), the
         smallest literal otherwise. Each variable is handled at its
         positive literal only — the mirror component repeats the same
         equivalences negated. The plan is a list of (l, rep) pairs. *)
      let plan = buf 16 in
      let live_lit l =
        let v = Lit.var l in
        st.assigns.(v) = v_undef && Bytes.get st.eliminated v = '\000'
      in
      for k = 0 to ncomp - 1 do
        if moff.(k + 1) - moff.(k) >= 2 then begin
          let rep = ref (-1) and first = ref (-1) in
          for i = moff.(k + 1) - 1 downto moff.(k) do
            let l = members.(i) in
            if live_lit l then begin
              first := l;
              if st.frozen (Lit.var l) then rep := l
            end
          done;
          let rep = if !rep >= 0 then !rep else !first in
          if rep >= 0 then
            for i = moff.(k) to moff.(k + 1) - 1 do
              let l = members.(i) in
              if
                live_lit l && Lit.sign l && l <> rep
                && Lit.var l <> Lit.var rep
                && not (st.frozen (Lit.var l))
              then begin
                push plan l;
                push plan rep
              end
            done
        end
      done;
      (* Log every equivalence binary first, while the implication
         chains justifying them are all still present; then rewrite
         clause by clause (each rewrite is RUP against its original
         plus the pre-logged binaries). *)
      let i = ref 0 in
      while proving st && !i < plan.n do
        let l = plan.a.(!i) and r = plan.a.(!i + 1) in
        log_add st [| Lit.negate l; r |] 0 2;
        log_add st [| l; Lit.negate r |] 0 2;
        i := !i + 2
      done;
      let i = ref 0 in
      while !i < plan.n do
        let l = plan.a.(!i) and r = plan.a.(!i + 1) in
        if not st.unsat then begin
          let v = Lit.var l in
          (* v's value is r's under the replay of [extend_model]: the
             saved positive-occurrence clause [v ∨ ¬r] forces v exactly
             when r is true. *)
          push st.stack l;
          push st.stack (Lit.negate r);
          push st.stack 2;
          push st.stack 1;
          push st.stack v;
          substitute_literal st l r;
          Bytes.set st.eliminated v '\001';
          st.n_equivalent <- st.n_equivalent + 1;
          st.changed <- true;
          propagate_units st
        end;
        i := !i + 2
      done
    end
  end

(* --- Bounded variable elimination -------------------------------------- *)

(* Appends the resolvent of [c] (contains pos v) and [d] (contains
   neg v) to [res] as [len; lits], merging the two sorted clauses;
   false, with [res] untouched, when it is a tautology. *)
let resolve st v c d =
  let s = st.store.a in
  reserve st.res (1 + clen st c + clen st d);
  let r = st.res.a in
  let at = st.res.n in
  let k = ref (at + 1) in
  let i = ref (cstart st c) and j = ref (cstart st d) in
  let ci = cstart st c + clen st c and dj = cstart st d + clen st d in
  let taut = ref false in
  while (not !taut) && (!i < ci || !j < dj) do
    let x =
      if !j >= dj || (!i < ci && s.(!i) <= s.(!j)) then begin
        let x = s.(!i) in
        incr i;
        x
      end
      else begin
        let x = s.(!j) in
        incr j;
        x
      end
    in
    if Lit.var x <> v && (!k = at + 1 || r.(!k - 1) <> x) then begin
      if !k > at + 1 && r.(!k - 1) = x lxor 1 then taut := true;
      r.(!k) <- x;
      incr k
    end
  done;
  if not !taut then begin
    r.(at) <- !k - at - 1;
    st.res.n <- !k
  end;
  not !taut

let collect_pos st _l _ c = push st.pos c
let collect_neg st _l _ c = push st.neg c

let try_eliminate st v =
  if
    st.frozen v
    || Bytes.get st.eliminated v <> '\000'
    || st.assigns.(v) <> v_undef
    || st.n_eliminated >= st.cfg.bve_max_elim
    || Bytes.get st.dirty v = '\000'
  then ()
  else begin
    st.pos.n <- 0;
    st.neg.n <- 0;
    occ_iter st (Lit.pos v) collect_pos 0;
    occ_iter st (Lit.neg v) collect_neg 0;
    let np = st.pos.n and nn = st.neg.n in
    let total = np + nn in
    (* Distribute: the elimination is admitted when the resolvent set
       is no larger than the clause set it replaces. The clauses are
       taken latest first on both sides, the positive side outermost. *)
    let bound = total + st.cfg.bve_growth in
    let count = ref 0 in
    st.res.n <- 0;
    if total > 0 && total <= st.cfg.bve_max_occ then begin
      let i = ref (np - 1) in
      while !count <= bound && !i >= 0 do
        let j = ref (nn - 1) in
        while !count <= bound && !j >= 0 do
          if resolve st v st.pos.a.(!i) st.neg.a.(!j) then incr count;
          decr j
        done;
        decr i
      done
    end;
    if total = 0 || total > st.cfg.bve_max_occ || !count > bound then
      Bytes.set st.dirty v '\000'
    else begin
      (* Additions before deletions, so every resolvent checks as RUP
         against the clauses it was distributed from. *)
      let p = ref 0 in
      while !p < st.res.n do
        let n = st.res.a.(!p) in
        st.n_resolvents <- st.n_resolvents + 1;
        if n = 1 then begin
          log_add st st.res.a (!p + 1) 1;
          push st.units st.res.a.(!p + 1)
        end
        else new_clause st ~log:true st.res.a (!p + 1) n;
        p := !p + 1 + n
      done;
      for i = np - 1 downto 0 do
        let c = st.pos.a.(i) in
        for q = cstart st c to cstart st c + clen st c - 1 do
          push st.stack st.store.a.(q)
        done
      done;
      for i = np - 1 downto 0 do
        push st.stack (clen st st.pos.a.(i))
      done;
      push st.stack np;
      push st.stack v;
      for i = np - 1 downto 0 do
        delete st st.pos.a.(i);
        log_delete st st.pos.a.(i)
      done;
      for i = nn - 1 downto 0 do
        delete st st.neg.a.(i);
        log_delete st st.neg.a.(i)
      done;
      st.occ_n.(Lit.pos v) <- 0;
      st.occ_n.(Lit.neg v) <- 0;
      Bytes.set st.eliminated v '\001';
      st.n_eliminated <- st.n_eliminated + 1;
      st.changed <- true;
      propagate_units st
    end
  end

let bve_pass st =
  (* Cheapest variables first: elimination cost (and likelihood of
     admission) grows with the occurrence count. *)
  let order = Array.init st.nvars (fun v -> v) in
  let cost v = st.occ_n.(Lit.pos v) + st.occ_n.(Lit.neg v) in
  Array.sort (fun a b -> Int.compare (cost a) (cost b)) order;
  Array.iter (fun v -> if not st.unsat then try_eliminate st v) order

(* --- Driver ------------------------------------------------------------ *)

(* Loads the input: tautologies vanish, units feed the propagation
   queue, everything else enters the store, then the occurrence lists
   (sized from the loaded clauses) and the subsumption queue, both in
   clause order. *)
let load st clauses =
  List.iter
    (fun lits ->
      let n = List.length lits in
      reserve st.scratch n;
      List.iteri (fun i l -> st.scratch.a.(i) <- l) lits;
      match normalize_scratch st n with
      | -1 -> ()
      | 0 -> refute st
      | 1 -> push st.units st.scratch.a.(0)
      | k -> append st st.scratch.a 0 k)
    clauses;
  let s = st.store.a in
  for i = 0 to st.store.n - 1 do
    st.occ_n.(s.(i)) <- st.occ_n.(s.(i)) + 1
  done;
  Array.iteri
    (fun l n ->
      if n > 0 then st.occ.(l) <- Array.make n 0;
      st.occ_n.(l) <- 0)
    st.occ_n;
  for c = 0 to nclauses st - 1 do
    for i = cstart st c to cstart st c + clen st c - 1 do
      occ_push st s.(i) c
    done;
    enqueue st c
  done

(* The output records, [words] of them in all: one unit clause per
   fixed variable, then the live clauses in creation order; the empty
   clause alone when the formula was refuted. *)
let output st words =
  if st.unsat then [| 0 |]
  else begin
    let out = buf words in
    Array.iteri
      (fun v a ->
        if a <> v_undef then begin
          push out 1;
          push out (Lit.make v (a = 0))
        end)
      st.assigns;
    for c = 0 to nclauses st - 1 do
      if live st c then begin
        push out (clen st c);
        for i = cstart st c to cstart st c + clen st c - 1 do
          push out st.store.a.(i)
        done
      end
    done;
    assert (out.n = words);
    out.a
  end

let simplify ?(config = default) ?(drat = false) ~nvars ~frozen clauses =
  Tracing.with_span "preprocess.simplify" @@ fun () ->
  Metrics.incr m_runs;
  let orig_clauses = List.length clauses in
  let orig_literals = List.fold_left (fun acc c -> acc + List.length c) 0 clauses in
  let st =
    {
      cfg = config;
      nvars;
      frozen;
      store = buf orig_literals;
      start = buf orig_clauses;
      len = buf orig_clauses;
      csig = buf orig_clauses;
      flags = buf orig_clauses;
      occ = Array.make (2 * nvars) [||];
      occ_n = Array.make (2 * nvars) 0;
      assigns = Array.make (max 1 nvars) v_undef;
      eliminated = Bytes.make (max 1 nvars) '\000';
      dirty = Bytes.make (max 1 nvars) '\001';
      units = buf 64;
      uhead = 0;
      queue = buf orig_clauses;
      unsat = false;
      changed = false;
      stack = buf 64;
      scratch = buf 64;
      res = buf 64;
      pos = buf 16;
      neg = buf 16;
      index = [||];
      lowlink = [||];
      comp = [||];
      drat = (if drat then Some (Buffer.create 1024) else None);
      n_eliminated = 0;
      n_subsumed = 0;
      n_strengthened = 0;
      n_equivalent = 0;
      n_resolvents = 0;
      n_rounds = 0;
    }
  in
  Metrics.add m_clauses_in orig_clauses;
  load st clauses;
  propagate_units st;
  let continue_ = ref (not st.unsat) in
  while !continue_ && st.n_rounds < st.cfg.max_rounds do
    st.n_rounds <- st.n_rounds + 1;
    st.changed <- false;
    if st.cfg.subsumption || st.cfg.self_subsumption then subsumption_pass st;
    if (not st.unsat) && st.cfg.big then big_pass st;
    if (not st.unsat) && st.cfg.bve then bve_pass st;
    propagate_units st;
    continue_ := st.changed && not st.unsat
  done;
  let fixed = ref 0 in
  Array.iter (fun a -> if a <> v_undef then incr fixed) st.assigns;
  let clauses_out = ref 0 and literals_out = ref 0 in
  for c = 0 to nclauses st - 1 do
    if live st c then begin
      incr clauses_out;
      literals_out := !literals_out + clen st c
    end
  done;
  Metrics.add m_eliminated st.n_eliminated;
  Metrics.add m_subsumed st.n_subsumed;
  Metrics.add m_strengthened st.n_strengthened;
  Metrics.add m_equivalent st.n_equivalent;
  Metrics.add m_resolvents st.n_resolvents;
  Metrics.observe_int m_rounds st.n_rounds;
  Metrics.observe_int m_stack_depth (st.n_eliminated + st.n_equivalent);
  Metrics.add m_fixed !fixed;
  Metrics.add m_clauses_out (if st.unsat then 1 else !clauses_out + !fixed);
  {
    unsat = st.unsat;
    output = output st ((2 * !fixed) + !clauses_out + !literals_out);
    stats =
      {
        original_vars = nvars;
        original_clauses = orig_clauses;
        original_literals = orig_literals;
        clauses = (if st.unsat then 1 else !clauses_out + !fixed);
        literals = (if st.unsat then 0 else !literals_out + !fixed);
        eliminated_vars = st.n_eliminated;
        fixed_vars = !fixed;
        subsumed_clauses = st.n_subsumed;
        strengthened_clauses = st.n_strengthened;
        equivalent_vars = st.n_equivalent;
        resolvents_added = st.n_resolvents;
        rounds = st.n_rounds;
      };
    proof = (match st.drat with Some b -> Buffer.contents b | None -> "");
    recon = { width = nvars; stack = Array.sub st.stack.a 0 st.stack.n };
  }

let unsat (t : t) = t.unsat
let nvars t = t.recon.width
let stats t = t.stats
let proof t = t.proof
let reconstruction t = t.recon
let stack_words (r : reconstruction) = Array.length r.stack

let iter_clauses t f =
  let o = t.output in
  let p = ref 0 in
  while !p < Array.length o do
    let n = o.(!p) in
    let rec lits i = if i > n then [] else o.(!p + i) :: lits (i + 1) in
    f (lits 1);
    p := !p + 1 + n
  done

let clauses t =
  let acc = ref [] in
  iter_clauses t (fun c -> acc := c :: !acc);
  List.rev !acc

(* Calls [f v k lens lits] on each stack entry, most recent first,
   where the entry's clause lengths start at [lens] and its literals at
   [lits]. *)
let iter_entries (r : reconstruction) f =
  let s = r.stack in
  let p = ref (Array.length s) in
  while !p > 0 do
    let v = s.(!p - 1) and k = s.(!p - 2) in
    let lens = !p - 2 - k in
    let lits = ref lens in
    for i = lens to lens + k - 1 do
      lits := !lits - s.(i)
    done;
    f v k lens !lits;
    p := !lits
  done

let is_eliminated t v =
  let found = ref false in
  iter_entries t.recon (fun u _ _ _ -> if u = v then found := true);
  !found

let extend (r : reconstruction) m =
  let m =
    if Array.length m >= r.width then Array.copy m
    else Array.init r.width (fun v -> v < Array.length m && m.(v))
  in
  let s = r.stack in
  let lit_true l = if Lit.sign l then m.(Lit.var l) else not m.(Lit.var l) in
  (* Reverse elimination order: a saved clause mentions only variables
     still live at its elimination time, so each step only depends on
     values fixed before it. [v] must be true when one of its saved
     clauses has no other true literal. *)
  iter_entries r (fun v k lens lits ->
      let needs_true = ref false in
      let q = ref lits in
      for i = 0 to k - 1 do
        let n = s.(lens + i) in
        if not !needs_true then begin
          let other = ref false in
          for x = !q to !q + n - 1 do
            if Lit.var s.(x) <> v && lit_true s.(x) then other := true
          done;
          if not !other then needs_true := true
        end;
        q := !q + n
      done;
      m.(v) <- !needs_true);
  m

let extend_model t m = extend t.recon m

let pp_stats ppf s =
  Format.fprintf ppf
    "%d -> %d clauses (%d literals), %d eliminated, %d fixed, %d subsumed, %d \
     strengthened, %d equivalent, %d rounds"
    s.original_clauses s.clauses s.literals s.eliminated_vars s.fixed_vars
    s.subsumed_clauses s.strengthened_clauses s.equivalent_vars s.rounds
