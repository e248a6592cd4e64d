(** Semiring provenance over the downward closure.

    Why-provenance is one instance of the semiring provenance framework
    (Green, Karvounarakis & Tannen 2007; revisited for Datalog by
    Bourgaux, Bourhis, Peterfreund & Thomazo 2022, which the paper
    discusses). This module evaluates any commutative semiring over the
    graph of rule instances by Kleene iteration:

      val(α) = Σ over rule instances α :- β₁,…,βₙ of Π val(βᵢ)

    with database facts mapped through a user annotation. The iteration
    converges for the bundled instances (Boolean, saturating counting,
    tropical, witness sets), which are ω-continuous and stabilize on
    finite inputs.

    The {!Witness} instance recovers exactly [why(t̄, D, Q)] — tested
    against {!Materialize} — making the connection between the paper's
    combinatorial definition and the algebraic view executable.

    It reproduces related work, not the paper's pipeline, so it lives
    with the tests as a reference evaluator (see [test_semiring.ml])
    rather than in the [provenance] library. *)

open Datalog
open Provenance

module type S = sig
  type t

  val zero : t
  (** Neutral for [plus]; annihilator for [times]. *)

  val one : t
  val plus : t -> t -> t
  val times : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Boolean : S with type t = bool
(** Derivability: [plus = (||)], [times = (&&)]. *)

module Counting : sig
  include S

  val of_int : int -> t
  val to_string : t -> string
  val saturated : t -> bool
  (** Counts cap at a large threshold and stick there, standing in for
      the infinite counts recursion can produce. *)
end
(** Number of derivation trees (saturating). *)

module Tropical : sig
  include S

  val finite : float -> t
  val infinity : t
  val to_float : t -> float
end
(** Min-plus: cheapest derivation cost, where each database fact costs
    its annotation and a tree costs the sum of its leaf annotations
    (with multiplicity). *)

module Witness : sig
  include S

  val of_fact : Fact.t -> t
  val members : t -> Fact.Set.t list
end
(** The why-provenance semiring: values are families of supports;
    [plus = ∪], [times] = pairwise union of supports. *)

module Eval (Semiring : S) : sig
  val provenance :
    ?annotate:(Fact.t -> Semiring.t) ->
    Closure.t ->
    Semiring.t
  (** Least-fixpoint value of the closure's root. [annotate] maps
      database facts to their annotations (default [fun _ -> one]).
      @raise Invalid_argument if the iteration fails to converge within
      a large safety bound (no bundled instance triggers this). *)

  val provenance_of :
    ?annotate:(Fact.t -> Semiring.t) ->
    Program.t ->
    Database.t ->
    Fact.t ->
    Semiring.t
  (** Convenience: builds the closure first. *)
end
