(** Static join plans for rule bodies.

    The semi-naive engine ({!Engine}) does not interpret {!Rule.t}
    structures during joins. Each rule is compiled once per delta
    position into a flat program: variables become dense {e register}
    numbers, every body atom becomes an instruction that scans or
    probes one relation, checking constant and already-bound columns
    and binding the fresh ones, and the head becomes a pattern of
    constants and registers to ground from the register file.

    Body atoms are ordered by {e bound-variable connectivity}: after
    the delta atom (which always comes first — it is the round's
    smallest relation), the planner repeatedly picks the atom sharing
    the most variables with what is already bound, breaking ties in
    favour of extensional predicates (fixed-size relations, the static
    stand-in for live cardinality estimates), then by number of
    constants and then by original body position. The
    runtime still chooses {e which} bound column to probe per binding
    (the smallest index bucket), but the join order itself is fixed at
    compile time — no per-tuple selectivity estimation. *)

type instr = {
  i_atom : int;  (** position of this atom in the rule body *)
  i_pred : Symbol.t;  (** predicate whose relation is scanned *)
  i_from_delta : bool;  (** scan the round's delta instead of the model *)
  i_consts : (int * int) array;  (** [(col, sym)]: column must equal constant *)
  i_checks : (int * int) array;  (** [(col, reg)]: column must equal register *)
  i_binds : (int * int) array;  (** [(col, reg)]: bind fresh register from column *)
  i_dups : (int * int) array;
      (** [(col, reg)]: column must equal a register bound by {e this}
          instruction's [i_binds] — a variable repeated within the atom *)
  i_bound_cols : int array;  (** probe-able columns: consts' and checks' *)
}
(** One body atom, compiled. Registers referenced by [i_checks] are
    always bound by an {e earlier} instruction, so their values are
    available when choosing a probe column; repeated variables within
    one atom compile to one bind plus one [i_dups] check instead, which
    the runtime evaluates after the binds and never probes on. *)

type t = {
  p_rule : Rule.t;  (** the source rule *)
  p_delta : int;  (** body position joined against the delta; [-1] = none *)
  p_instrs : instr array;  (** body atoms in join order *)
  p_head_pred : Symbol.t;
  p_head : int array;
      (** head pattern: cell [>= 0] is a constant symbol, cell [< 0]
          denotes register [-cell - 1] *)
  p_nregs : int;  (** size of the register file *)
}
(** A compiled (rule, delta position) pair. *)

val compile : Program.t -> Rule.t -> delta:int -> t
(** [compile program rule ~delta] compiles [rule] with body position
    [delta] designated as the delta atom ([-1] for a full evaluation,
    as in the first semi-naive round). Ticks [eval.join.plans]. *)

val required_indexes : t -> (Symbol.t * bool * int) list
(** The [(pred, from_delta, col)] column indexes the runtime may probe
    while executing this plan — built eagerly by the engine before any
    parallel round, so no index is constructed concurrently. *)
