(** Structured CNF instance generators (docs/HARDENING.md).

    Adversarial inputs for the solver pipeline, beyond the five
    friendly paper workloads: a Tseytin circuit builder and four
    classic families. Every generator is deterministic in its
    parameters (and Rng seed, where one is taken), so any instance can
    be regenerated from the parameter line its DIMACS header records —
    [whyfuzz gen] writes exactly these. *)

type cnf = {
  nvars : int;
  clauses : Sat.Lit.t list list;
}

val to_dimacs : ?comments:string list -> cnf -> string
(** DIMACS text, one [c ] comment line per [comments] entry before the
    header — the seed/parameter record of the corpus files. *)

val of_dimacs : string -> cnf
(** @raise Sat.Dimacs.Parse_error on malformed input. *)

(** Tseytin transformation of combinational circuits (Tseytin 1968):
    each gate gets one fresh variable and 3–4 defining clauses, so the
    CNF is linear in circuit size and equisatisfiable with the asserted
    outputs. {!Circuit.eval} replays the circuit structurally on
    concrete inputs — the independent oracle the property tests check
    the CNF against. *)
module Circuit : sig
  type t
  type node

  val create : unit -> t

  val input : t -> node
  (** A fresh circuit input (also one CNF variable). *)

  val not_ : node -> node
  (** Free: literal negation, no gate. *)

  val and_ : t -> node -> node -> node
  val or_ : t -> node -> node -> node
  val xor_ : t -> node -> node -> node

  val ite : t -> node -> node -> node -> node
  (** [ite c sel t e] is [if sel then t else e]. *)

  val and_list : t -> node list -> node
  val or_list : t -> node list -> node
  val xor_list : t -> node list -> node
  (** Left folds of the binary gates. @raise Invalid_argument on []. *)

  val assert_ : t -> node -> unit
  (** Adds a unit clause forcing the node true — the circuit's output
      constraint. *)

  val n_inputs : t -> int

  val cnf : t -> cnf
  (** The accumulated Tseytin clauses, in emission order. *)

  val eval : t -> bool array -> node -> bool
  (** Structural evaluation of a node under an input assignment
      (indexed by input creation order); ignores the CNF entirely.
      @raise Invalid_argument on short vectors or foreign nodes. *)
end

val pigeonhole : pigeons:int -> holes:int -> cnf
(** PHP(p,h): every pigeon in some hole, no two pigeons share a hole.
    Unsatisfiable iff [pigeons > holes] — the classic resolution-hard
    family. Variable [(p·holes)+h] means pigeon [p] sits in hole [h]. *)

val random_kcnf : ?k:int -> Util.Rng.t -> nvars:int -> ratio:float -> cnf
(** Uniform random [k]-CNF (default [k = 3]) with
    [round (ratio · nvars)] clauses of [k] distinct variables each.
    Ratio 4.26 sits at the 3-SAT phase transition, where random
    instances are hardest. *)

val xor_chain : length:int -> sat:bool -> cnf
(** A Tseytin-encoded XOR chain [x₁ ⊕ … ⊕ xₙ] asserted true, with all
    inputs pinned by unit clauses: first input true (odd parity —
    satisfiable) with [~sat:true], all false (even parity —
    unsatisfiable) otherwise. Exercises exactly the clause shapes BVE
    likes to rewrite. *)

val grid_coloring : width:int -> height:int -> colors:int -> cnf
(** Proper [colors]-coloring of the [width × height] grid graph:
    at-least-one-color per cell, adjacent cells never share a color.
    Satisfiable for [colors >= 2] (grids are bipartite); [colors = 1]
    with at least one edge is unsatisfiable. *)

val unit_conflict : unit -> cnf
(** [{x}, {¬x}] — the smallest unsatisfiable CNF; the corpus's
    degenerate-input canary. *)

val sudoku : ?givens:int -> ?conflict:bool -> Util.Rng.t -> box:int -> cnf
(** Sudoku on the [box²×box²] grid of [box×box] boxes, pairwise-encoded:
    exactly one value per cell, each value at most once per row, column
    and box. Variable [(r·side + c)·side + k] (with [side = box²])
    means cell [(r,c)] holds value [k+1]. [givens] (default 0) pins
    that many Rng-chosen cells to a fixed valid solution — satisfiable
    by construction. [conflict] (default false) pins cell [(0,0)] to
    two different values — unsatisfiable whatever the givens. [box = 3]
    is the newspaper puzzle: 729 variables. *)
