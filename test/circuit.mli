(** Provenance circuits for Datalog (Deutch, Milo, Roy & Tannen, ICDT
    2014 — one of the provenance approaches the paper builds on).

    A provenance circuit is a DAG of [+] and [×] gates over input gates
    labelled with database facts; evaluating it in a commutative
    semiring yields the same value as the fixpoint of {!Semiring.Eval},
    but the circuit is a reusable, semiring-independent artifact: build
    once, evaluate under many annotations.

    For recursive programs the circuit is built by unrolling the
    equation system of the downward closure to a finite depth [k]
    (gate [(α, i)] = value of [α] after [i] applications of the
    immediate-consequence operator). Depth [num_nodes closure] suffices
    for the Boolean semiring (reachability converges), and depth equal
    to the Kleene convergence round suffices for any semiring; for
    non-recursive programs the circuit is exact at depth = predicate
    stratification depth. Gates are hash-consed per (fact, level).

    Like {!Semiring}, it lives with the tests as a reference evaluator
    (see [test_circuit.ml]). *)

open Datalog
open Provenance

type t

val of_closure : ?depth:int -> Closure.t -> t
(** Builds the unrolled circuit for the closure's root fact. [depth]
    defaults to the number of closure nodes. *)

val size : t -> int
(** Number of distinct gates. *)

val depth_used : t -> int

module Eval (S : Semiring.S) : sig
  val eval : ?annotate:(Fact.t -> S.t) -> t -> S.t
  (** Evaluates the circuit bottom-up (memoized, linear in its size).
      [annotate] maps input gates (database facts) to values; defaults
      to [S.one]. *)
end

val to_dot : t -> string
(** Graphviz rendering ([+] and [×] gates, boxed inputs). *)
