(** Exhaustive reference computations of all four why-provenance
    variants, usable only on small inputs. These are the test oracles
    against which the SAT pipeline, the FO rewriting and the
    materialization engine are validated.

    All functions return the family of supports sorted by
    {!Datalog.Fact.Set.compare}. *)

open Datalog

val why : Program.t -> Database.t -> Fact.t -> Fact.Set.t list
(** Why-provenance over arbitrary proof trees (Definition 2), via the
    set-of-sets fixpoint of {!Materialize}. *)

val why_nr : Program.t -> Database.t -> Fact.t -> Fact.Set.t list
(** Relative to non-recursive proof trees (Definition 18): exhaustive
    enumeration of trees with no fact repeated along a path. *)

val why_md : Program.t -> Database.t -> Fact.t -> Fact.Set.t list
(** Relative to minimal-depth proof trees (Definition 26): exhaustive
    enumeration of trees of depth [min-tree-depth(α, D, Σ)]. *)

val why_un : Program.t -> Database.t -> Fact.t -> Fact.Set.t list
(** Relative to unambiguous proof trees (Definition 13): exhaustive
    enumeration of compressed DAGs (Proposition 41). *)

val min_depth : Program.t -> Database.t -> Fact.t -> int option
(** [min-tree-depth(α, D, Σ)] = [min-dag-depth] = the immediate-
    consequence rank (Proposition 28 / Lemma 29); [None] if the fact is
    not derivable. *)

val trees_up_to_depth : Program.t -> Database.t -> Fact.t -> depth:int -> Proof_tree.t list
(** Every proof tree of the fact with depth at most [depth]. Explodes
    quickly; tests only. Guard with {!count_trees} first. *)

val count_trees : Program.t -> Database.t -> Fact.t -> depth:int -> int
(** Number of proof trees of the fact with depth at most [depth],
    computed by dynamic programming (no enumeration), saturating at
    [max_int / 2]. *)

val non_recursive_trees : Program.t -> Database.t -> Fact.t -> Proof_tree.t list
(** Every non-recursive proof tree of the fact. *)

val some_tree : Program.t -> Database.t -> Fact.t -> Proof_tree.t option
(** One minimal-depth proof tree, or [None] if not derivable: the first
    tree of {!trees_up_to_depth} at the minimal depth, so exponential.
    The reference the tests hold {!Trace.proof_tree}'s rank descent
    (what [whyprov tree] runs) against. *)
