(** Bottom-up evaluation: semi-naive fixpoint, backward
    rule-instance extraction, and derivation ranks.

    [seminaive] implements the immediate-consequence fixpoint
    [T_Σ^∞(D)] with delta-restricted joins. Ranks follow Proposition 28
    of the paper: the round at which a fact is first derived equals
    [min-dag-depth(α, D, Σ)]. *)

type binding = (Symbol.t, Symbol.t) Hashtbl.t
(** A partial assignment from variables to constants, mutated with
    stack discipline during joins. *)

val match_atom : Database.t -> binding -> Atom.t -> (Fact.t -> unit) -> unit
(** [match_atom db b atom k] enumerates the facts of [db] matching [atom]
    under the current binding; for each, extends [b] with the new variable
    bindings, calls [k fact], then restores [b]. *)

val match_body : Database.t -> binding -> Atom.t list -> (unit -> unit) -> unit
(** Left-to-right join of a list of atoms. *)

val ground : binding -> Atom.t -> Fact.t
(** Instantiates an atom whose variables are all bound.
    @raise Invalid_argument otherwise. *)

val seminaive :
  ?ranks:int Fact.Table.t -> Program.t -> Database.t -> Database.t
(** Semi-naive fixpoint; returns the model [Σ(D)]. If [ranks] is given it
    is filled with the first-derivation round of every model fact
    (0 for database facts). Delegates to the interned flat-tuple engine
    ({!Engine.seminaive}), so the model shares [db]'s relations of
    extensional predicates, which must stay read-only. The model, the
    ranks and the model's iteration order depend only on
    [(program, db)]. When
    {!Profile.is_enabled} is true at call time, the run contributes per-rule / per-atom / per-SCC
    attribution to the accumulated profile ({!Profile.snapshot}). *)

val holds : Program.t -> Database.t -> Fact.t -> bool
(** [holds p d fact] is [true] iff [fact ∈ Σ(D)]. Materializes the model. *)

val answers : Program.t -> Symbol.t -> Database.t -> Fact.t list
(** All model facts over the given (answer) predicate, sorted. *)

val derivations : Program.t -> Database.t -> Fact.t -> (Rule.t * Fact.t list) list
(** [derivations p model fact] lists every rule instance deriving [fact]
    whose body facts all belong to [model]: pairs of the rule and the
    ground body (in body-atom order). Deduplicated. *)
