(** Analysis-driven encoding selection.

    The SAT encoding of why-provenance spends most of its clauses on
    forbidding cyclic support (the acyclicity constraint). For a
    non-recursive program the rule-instance graph of {e any} database is
    already a DAG, so every candidate model is acyclic and those clauses
    are tautological — the planner tells the encoder to drop them.

    Plans are memoized per program (by physical identity); consulting
    the planner from every [Encode.make] is cheap. Decisions are counted
    under the [analysis.selection.*] metrics. *)

open Datalog

type t = {
  classification : Classify.t;
  skip_acyclicity : bool;
      (** sound to omit acyclicity clauses for every database *)
  reason : string;  (** one-line justification, for logs and JSON *)
}

val plan : Program.t -> t
val skip_acyclicity : Program.t -> bool
