(** CDCL SAT solver.

    A conflict-driven clause-learning solver in the MiniSat/Glucose
    family: two-watched-literal propagation, first-UIP conflict analysis
    with local clause minimization, VSIDS variable activities with phase
    saving, Luby restarts, and LBD-aware learnt-clause database
    reduction. Supports incremental clause addition between calls to
    {!solve} and solving under assumptions — exactly the interface the
    why-provenance enumerator needs (blocking clauses, membership checks
    under fixed leaf assignments).

    This module substitutes for the Glucose 4.2.1 solver used by the
    paper's artifact.

    {b Domain confinement.} A solver instance owns all of its mutable
    state (clause arena, watch lists, trail, activity heap, model);
    the module keeps no module-level mutable state besides the
    {!Util.Metrics} instruments, which are domain-safe. Distinct
    instances may therefore run on distinct OCaml 5 domains
    concurrently — the batch enumerator relies on this — but a single
    instance must only ever be driven from one domain at a time. *)

type t

type result =
  | Sat
  | Unsat

(** Search-tuning knobs, gathered in one record so bench experiments
    can sweep them. {!default_config} reproduces the historical
    constants. On-the-fly subsumption is the only inprocessing;
    [otf_subsume = false] disables it. *)
type config = {
  restart_base : int;       (** conflicts allowed in the first restart *)
  restart_factor : float;   (** Luby sequence base for restart budgets *)
  max_learnts : int;        (** learnt clauses kept before a DB reduction *)
  max_learnts_growth_pct : int;
      (** percentage growth of the learnt cap after each reduction *)
  var_decay : float;        (** VSIDS variable-activity decay (0 < d <= 1) *)
  cla_decay : float;        (** learnt-clause activity decay (0 < d <= 1) *)
  otf_subsume : bool;
      (** delete a learnt conflicting clause subsumed by the clause just
          learnt from it (on-the-fly subsumption) *)
}

val default_config : config

val create : ?config:config -> unit -> t

val new_var : t -> int
(** Allocates a fresh variable and returns its index. *)

val ensure_vars : t -> int -> unit
(** [ensure_vars s n] makes variables [0 .. n-1] exist. *)

val num_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Adds a clause. Must be called with the solver at decision level 0
    (i.e. outside {!solve}); duplicates and level-0-false literals are
    removed, tautologies dropped. May make the solver permanently
    unsatisfiable (see {!okay}). *)

val okay : t -> bool
(** [false] once the clause set has been proven unsatisfiable at level 0;
    further [solve] calls return [Unsat] immediately. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solves the current clause set under the given assumptions. On [Sat]
    the model is available through {!value} / {!model} until the next
    call that modifies the solver. *)

val solve_limited : ?assumptions:Lit.t list -> conflict_budget:int -> t -> result option
(** Like {!solve} but gives up after the given number of conflicts,
    returning [None]. Learnt clauses are kept, so the work is not
    wasted if the caller retries. Used for timeout-style budgets in the
    enumeration harness. *)

val solve_with_timeout :
  ?assumptions:Lit.t list -> timeout_s:float -> t -> result option
(** Like {!solve} but gives up (returning [None]) once the given
    wall-clock budget is spent. Implemented as {!solve_limited} slices
    with a clock check between slices, so the answer can overshoot the
    deadline by at most one slice; learnt clauses persist, so retries
    resume rather than restart. The corpus-hardening harness runs every
    instance under this. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer.
    @raise Invalid_argument if the last call did not return [Sat]. *)

val model : t -> bool array
(** Copy of the full model after a [Sat] answer. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  learnt_literals : int;
  deleted_clauses : int;
  otf_subsumed : int;       (** clauses deleted by on-the-fly subsumption *)
  lbd : (int * int) list;
      (** Learnt-clause LBD distribution as [(lbd, count)] pairs,
          ascending, zero-count bins omitted. The last bin (LBD 32)
          collects every LBD [>= 32]. *)
}

val stats : t -> stats

(** {1 Progress telemetry}

    A periodic sample of the search's vital signs in the MiniSat /
    Glucose progress-line tradition — see [docs/OBSERVABILITY.md]. *)

type progress = {
  p_conflicts : int;
  p_decisions : int;
  p_propagations : int;
  p_restarts : int;
  p_learnts : int;       (** learnt clauses currently in the database *)
  p_lbd_avg : float;     (** mean LBD over every clause learnt so far *)
  p_decision_level : int;
}

val set_progress : ?interval:int -> (progress -> unit) option -> unit
(** Installs (or with [None] removes) a module-level progress hook,
    invoked from inside the search loop every [interval] conflicts
    (default 2048) by whichever solver instance is running. The
    callback runs on the solving domain — with a multi-domain batch it
    must be domain-safe (e.g. take a mutex before printing). The armed
    per-conflict cost is one integer comparison; disarmed it is zero
    (a [max_int] threshold that never fires).

    Independently of the callback, every checkpoint — and the end of
    every solve call — emits a ["sat.progress"] counter sample
    (conflicts, restarts, learnts, lbd_avg, decision_level) when
    {!Util.Tracing} is recording. *)

type totals = {
  t_solves : int;
  t_conflicts : int;
  t_restarts : int;
  t_learnt_clauses : int;
}

val progress_totals : unit -> totals
(** Cross-solver running totals, accumulated once per solve call while
    a callback is installed or tracing is recording — what a final
    "N solves, M conflicts" summary line reads. *)

val enable_proof_logging : t -> unit
(** Start recording a DRAT trace (additions of learnt clauses and
    top-level units, strengthenings and deletions). Call before adding
    clauses. An UNSAT answer obtained without assumptions ends the
    trace with the empty clause; verify with {!Drat.check}. *)

val proof : t -> string
(** The DRAT trace recorded so far (empty if logging is off). *)

val append_proof : t -> string -> unit
(** Appends externally derived DRAT lines (e.g. the {!Preprocess}
    trace) verbatim to the trace. Call right after
    {!enable_proof_logging}, before loading the derived clauses, so the
    combined proof checks against the original clause set. No-op when
    logging is off. *)

val set_default_polarity : t -> bool -> unit
(** Initial phase for unassigned variables (default [false], which makes
    the enumerator prefer small supports first). *)
