(** Decision procedures for the paper's central problem,
    Why-Provenance[Q] and its refinements: given [D], [t̄] and
    [D' ⊆ D], does [D'] belong to the why-provenance of [t̄]?

    The procedures exploit the observation that a proof tree with
    support [D'] only uses facts of [D'], so membership can be decided
    over the candidate database itself — except for the minimal-depth
    variant, whose depth threshold is relative to the full database.
    For [why], [why_NR] and [why_UN] the argument is the same: a proof
    tree of [t̄] over [D] whose support is [D' ⊆ D] is a proof tree of
    [t̄] over [D'] (its leaves are facts of [D'], its inner nodes are
    rule instances, which do not depend on the database), and
    conversely every proof tree over [D'] is one over [D]. Being
    non-recursive or unambiguous is a property of the tree alone, so
    the trees that witness [D'] are the same over [D] and over [D']. *)

open Datalog

val why : Program.t -> Database.t -> Fact.t -> Fact.Set.t -> bool
(** [D' ∈ why(t̄, D, Q)] — arbitrary proof trees (NP-complete in data
    complexity, Theorem 3). Decided by the set-of-sets fixpoint over
    [D']; worst-case exponential. *)

val why_un : Program.t -> Database.t -> Fact.t -> Fact.Set.t -> bool
(** [D' ∈ why_UN(t̄, D, Q)] — unambiguous proof trees (NP-complete,
    Theorem 14). Decided with the SAT encoding under assumptions, the
    practical algorithm of Section 5, over the candidate database [D']
    (so the formula is that of [D'], not of [D]). *)

val why_nr : Program.t -> Database.t -> Fact.t -> Fact.Set.t -> bool
(** [D' ∈ why_NR(t̄, D, Q)] — non-recursive proof trees (NP-complete,
    Theorem 19). Exhaustive; small inputs only. *)

val why_md : Program.t -> Database.t -> Fact.t -> Fact.Set.t -> bool
(** [D' ∈ why_MD(t̄, D, Q)] — minimal-depth proof trees (NP-complete,
    Theorem 27). Exhaustive; small inputs only. *)
