(** The Boolean encoding of Section 5.1/D.2 of the paper.

    Given the downward closure of [R(t̄)] w.r.t. [D] and [Σ], builds the
    CNF formula [φ = φ_graph ∧ φ_root ∧ φ_proof ∧ φ_acyclic] whose
    satisfying assignments are exactly the compressed DAGs of [R(t̄)]
    (Lemma 44), so that [why_UN(t̄, D, Q) = {db(τ) | τ ⊨ φ}]
    (Proposition 15).

    Two encodings of acyclicity are provided:
    - [Transitive_closure]: the textbook O(n·m) clauses / O(n²) variables
      encoding (the one used in the correctness proof);
    - [Vertex_elimination]: the Rankooh–Rintanen (AAAI 2022) encoding the
      paper's implementation uses, with a min-degree elimination order;
      needs O(n·δ) variables where δ is the elimination width.

    A third option, [No_acyclicity], emits no φ_acyclic clauses at all.
    It is selected automatically (never forced) when the static analyzer
    proves every candidate model acyclic: the program is non-recursive
    ({!Whyprov_analysis.Selection.skip_acyclicity}), or this closure's
    candidate edge set is already a DAG ({!Closure.graph_acyclic}). *)

open Datalog

type acyclicity =
  | Transitive_closure
  | Vertex_elimination
  | No_acyclicity
      (** skip φ_acyclic entirely — sound only when every subset of the
          candidate edges is acyclic; pass it explicitly at your own
          risk, or omit [?acyclicity] to let the analyzer decide *)

exception Too_large of string
(** Raised when [max_fill] is exceeded during vertex elimination — the
    OCaml analogue of the out-of-memory behaviour the paper reports on
    highly connected graphs. *)

type t

type elimination_order =
  | Min_degree   (** greedy minimum-degree heuristic (the default) *)
  | Input_order  (** eliminate nodes in input order (ablation baseline) *)

val make :
  ?acyclicity:acyclicity ->
  ?elimination_order:elimination_order ->
  ?max_fill:int ->
  ?capture:bool ->
  ?proof_logging:bool ->
  ?preprocess:bool ->
  Closure.t ->
  t
(** Builds the formula and loads it into a fresh solver.
    When [acyclicity] is omitted, the choice is analysis-driven:
    [No_acyclicity] if the program is non-recursive or the closure's
    candidate graph is a DAG, [Vertex_elimination] otherwise. The
    decision is counted under [encode.acyclicity.skipped] /
    [encode.acyclicity.emitted].
    [max_fill] bounds the number of fill edges created by vertex
    elimination (default: unlimited); [capture] additionally retains the
    clause list (for DIMACS export and the DPLL ablation);
    [proof_logging] turns on DRAT proof logging on the fresh solver
    before any clause is added, so that the terminal UNSAT answer of an
    enumeration can be certified with {!Sat.Drat.check} (combine with
    [capture] to get the original clause list the checker needs).

    By default the staged formula is simplified by {!Sat.Preprocess}
    before it reaches the solver — with the db-fact x variables frozen,
    so models project onto exactly the same member sets — and only the
    simplified clauses are loaded; [~preprocess:false] loads the raw
    formula instead. [captured_clauses], {!stats}[.clauses] and the
    per-component clause counters always describe the original formula
    (the DRAT checker and the DIMACS export need it); the simplified
    size is in {!stats}[.preprocess]. *)

val captured_clauses : t -> Sat.Lit.t list list option
(** The clause list when built with [~capture:true]. *)

val reconstruction : t -> Sat.Preprocess.reconstruction option
(** What the encoding keeps of its preprocessing run ([None] with
    [~preprocess:false]): the reconstruction stack {!witness_dag}
    re-extends models with, and nothing of the simplified formula. *)

val witness_dag : t -> bool array -> Proof_dag.t
(** Reconstructs the compressed proof DAG a satisfying assignment
    describes (Lemma 44): one node per chosen fact, justified by the
    rule instance of its selected hyperedge. Unravelling it yields an
    unambiguous proof tree whose support is [db_of_model]. *)

val solver : t -> Sat.Solver.t

val db_facts : t -> Fact.t array
(** The set [S] of database facts in the closure, in a fixed order. *)

val db_vars : t -> int array
(** The SAT variables [x_α] of {!db_facts}, index-aligned. A node's
    variable is its {!Closure.node_id}. Callers must not mutate it. *)

val db_of_model : t -> bool array -> Fact.Set.t
(** [db(τ)]: the database facts whose variable is true in the model. *)

val blocking_clause : t -> Fact.Set.t -> Sat.Lit.t list
(** The clause [⋁_{α ∈ S} ℓ_α] of Section 5.2 that excludes exactly the
    given member of the why-provenance from future models. *)

val assumptions_for : t -> Fact.Set.t -> Sat.Lit.t list option
(** Assumptions fixing [db(τ) = D']: [x_α] for [α ∈ D'], [¬x_α] for
    [α ∈ S \ D']. Returns [None] when [D' ⊄ S] (in which case [D'] is
    certainly not a member). *)

(** Encoding statistics (reported by the benchmark harness). *)
type stats = {
  nodes : int;
  hyperedges : int;
  edges : int;           (** distinct (α, β) pairs with a [z] variable *)
  variables : int;
  clauses : int;
  elimination_width : int;  (** 0 for the transitive-closure encoding *)
  fill_edges : int;         (** idem *)
  preprocess : Sat.Preprocess.stats option;
      (** simplification outcome; [None] when built with
          [~preprocess:false] *)
}

val stats : t -> stats
