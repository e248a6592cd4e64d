(** Random positive Datalog programs over a small fixed schema.

    One distribution shared by the engine differential tests
    ([test/test_engine.ml]) and the hardening fuzzer
    ({!Harden.Fuzz}), so that a failure found by either can be
    reproduced, printed and shrunk the same way. Programs are positive
    (hence stratified) and safe by construction: EDB predicates [e/2]
    and [f/1], IDB heads [p/2], [q/1], [s/2], constants [c0..c5],
    variables [X Y Z W]. Databases mix EDB facts, the occasional IDB
    fact, and facts of a predicate outside the program's schema (which
    engines must pass through untouched). *)

type t = {
  rules : Datalog.Rule.t list;
  facts : Datalog.Fact.t list;
}

val generate :
  ?min_rules:int ->
  ?max_rules:int ->
  ?min_facts:int ->
  ?max_facts:int ->
  Util.Rng.t ->
  t
(** Draws a program + database. Defaults: 2–6 rules, 4–30 facts. The
    powerset-oracle differential caps facts at ≤ 10 via [max_facts]. *)

val program : t -> Datalog.Program.t
(** The rules as a program (ids assigned by position). *)

val database : t -> Datalog.Database.t

val extensional : t -> t
(** The instance without its intensional facts (those of a predicate
    some rule derives), which the provenance layer rejects as the
    analyzer does (see [Closure.build]). *)

val to_string : t -> string
(** Parseable [.dl] text: rules first, then facts — the reproducer
    format the fuzzer writes. Inverse of {!of_string}. *)

val of_string : string -> t
(** Parses reproducer text back. @raise Datalog.Parser.Error on
    malformed input. *)

val shrink : still_failing:(t -> bool) -> t -> t
(** Greedy delta debugging to a 1-minimal failing instance: repeatedly
    deletes single rules/facts as long as [still_failing] holds of the
    result. [still_failing] must hold of the input. *)
