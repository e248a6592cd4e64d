(** First-order rewriting of why-provenance for non-recursive Datalog
    queries — Theorem 9 (arbitrary proof trees), Theorem 25
    (non-recursive proof trees), Theorem 14(2) (unambiguous proof
    trees), and Theorem 36 (minimal-depth proof trees).

    For a non-recursive query [Q = (Σ, R)] we enumerate the Q-trees
    symbolically — expand intensional atoms by every applicable rule
    with most-general unifiers, then take every quotient (variable
    merging) of the resulting labelled tree, since a proof tree may
    identify two variables by mapping them to the same constant. Each
    quotient tree yields the CQ induced by its leaves (Definition 10);
    trees are filtered by the requested proof-tree class, and the CQ set
    is reduced up to isomorphism ([cq≈(Q)], finite by Lemma 11).

    Membership is then first-order evaluable on the candidate alone
    (Lemma 12): [D' ∈ why(t̄, D, Q)] iff some [φ(ȳ) ∈ cq≈(Q)] admits an
    injective match into [D'] sending [ȳ] to [t̄] that covers every fact
    of [D']. For the minimal-depth variant the extra conjunct [φ₄] of
    Theorem 36 is evaluated: no CQ of strictly smaller tree depth may
    admit a plain (non-covering) match.

    Note on [Minimal_depth]: since [φ₄] is evaluated over [D'] alone, it
    compares against the minimal proof-tree depth {e within the
    candidate}, i.e. it decides [D' ∈ why_MD(t̄, D', Q)]. When some
    strictly shallower proof tree exists in [D] but uses facts outside
    [D'], this differs from Definition 26's [why_MD(t̄, D, Q)] (which
    {!Membership.why_md} decides); DESIGN.md discusses the discrepancy
    in the paper's Lemma 37.

    Restriction: the program must be non-recursive and constant-free
    (the paper's rule format).

    No command decides membership with it: [whyprov member] runs
    {!Membership}, which is faster on every measured query. It stays as
    a reference that the tests check {!Membership} against and that
    bench's [combined] experiment times. *)

open Datalog

type variant =
  | Any            (** arbitrary proof trees (Theorem 9) *)
  | Non_recursive  (** Theorem 25 *)
  | Unambiguous    (** Theorem 14(2) *)
  | Minimal_depth  (** Theorem 36 *)

type t

val compile : ?variant:variant -> Program.t -> Symbol.t -> t
(** [compile program answer_pred] builds [cq≈(Q)] for the class.
    @raise Invalid_argument if the program is recursive, contains
    constants in rules, or [answer_pred] is not intensional. *)

val cq_count : t -> int
(** Number of CQs in [cq≈(Q)] (after isomorphism dedup). *)

val member : t -> Fact.Set.t -> Symbol.t array -> bool
(** [member rewriting d' tuple] decides membership of [d'] in the
    why-provenance of [tuple] relative to the compiled class — note the
    rewriting is evaluated on [d'] alone, which is what makes the
    problem AC⁰ in data complexity. *)

val pp : Format.formatter -> t -> unit
(** Prints every CQ of [cq≈(Q)] in a readable form. *)
