(** Differential fuzzing with shrinking (docs/HARDENING.md).

    One seeded loop, four differentials per iteration:

    - {b CNF}: a random or structured formula ({!Gen}) solved by a
      portfolio of pipeline configurations (preprocessing on/off,
      on-the-fly subsumption on/off, restart and learnt-database
      variants), every answer judged against the truth-table oracle
      ({!Sat.Reference.count_models}), SAT models evaluated on the
      original clauses, UNSAT answers DRAT-certified; each
      configuration also enumerates models with blocking clauses and
      must find as many as the oracle counts.
    - {b engine}: a random Datalog program ({!Workloads.Randprog})
      through the flat engine vs the structural reference engine
      ({!Oracle.seminaive}): model set, ranks and model order.
    - {b provenance}: the SAT-based [why_UN] enumeration (preprocessing
      on/off) vs the powerset oracle ({!Oracle.why_un_powerset}) on a
      tiny database, for every derived IDB fact.
    - {b parser}: a decorated Randprog text ({!parser_template}) read by
      {!Datalog.Parser.parse_raw} vs the reference parser
      ({!Oracle.parse_raw}), see {!check_parser}.

    A disagreement is greedily minimized (clauses/literals, or
    rules/facts, or characters of a parser text) and rendered as a
    reproducer whose header records
    [(seed, iter)] — instance generation depends on those two values
    only, so the failure regenerates from the header alone. The loop is
    deterministic: same seed, same iterations, same instances, same
    summary. *)

type cnf_answer =
  | A_sat of bool array  (** model over the original variables *)
  | A_unsat              (** certified if the solver certifies *)
  | A_failed of string   (** solver-internal cross-check failed *)

type cnf_solver = {
  cs_name : string;
  cs_solve : nvars:int -> Sat.Lit.t list list -> cnf_answer;
  cs_enumerate : limit:int -> nvars:int -> Sat.Lit.t list list -> bool array list;
      (** At most [limit] models over the [nvars] variables, in the order
          found; each is blocked before the next solve. *)
}
(** A full solving pipeline behind two functions. Tests inject buggy
    ones to prove the harness catches and shrinks them. *)

val pipeline_solver :
  name:string ->
  config:Sat.Solver.config ->
  preprocess:bool ->
  unit ->
  cnf_solver
(** The real pipeline: optional SatELite preprocessing, CDCL under
    [config], model reconstruction, DRAT certification of UNSATs
    (failures surface as [A_failed]). Its enumeration preprocesses with
    every variable frozen and reuses one incremental solver. *)

val panel_configs : (string * Sat.Solver.config) list
(** The named solver configurations the hardening checks cross:
    [default]; [fast-restarts] (Luby base 16, factor 1.5);
    [no-inprocessing] (on-the-fly subsumption off); [tiny-db] (16 learnt
    clauses, growing 10% per reduction). [whyfuzz corpus --configs]
    takes these names. *)

val default_cnf_solvers : unit -> cnf_solver list
(** Five configurations spanning preprocessing on/off, on-the-fly
    subsumption on/off, fast restarts, and an aggressively small learnt
    database. *)

val check_cnf_with : cnf_solver list -> Gen.cnf -> (unit, string) result
(** Every solver against the oracle, one solve and one enumeration
    each; [Error] describes the first discrepancy. *)

val shrink_cnf :
  failing:(Sat.Lit.t list list -> bool) ->
  Sat.Lit.t list list ->
  Sat.Lit.t list list
(** Greedy clause deletion then per-clause literal deletion to a
    1-minimal failing list. [failing] must hold of the input. *)

val check_model_order : Datalog.Database.t -> Datalog.Database.t -> (unit, string) result
(** [check_model_order db model]: the model order contract. Each
    predicate's facts in [model] start with its facts in [db], in
    [db] order. *)

val check_engine : Workloads.Randprog.t -> (unit, string) result
val check_provenance : Workloads.Randprog.t -> (unit, string) result
(** The Datalog differentials. [check_engine] also checks both models
    with {!check_model_order}. [check_provenance] expects the
    (deduplicated) database within the powerset oracle's reach.
    @raise Invalid_argument beyond 9 facts ([check_provenance] only). *)

val parser_template : Util.Rng.t -> string
(** A Randprog program as source text, decorated with clauses Randprog
    does not draw (zero-arity atoms, facts at other arities, quoted
    names, one spanning two lines, [_], non-ground bodyless clauses),
    comments, tabs and CRLF line ends; one draw in four is truncated and
    one in four gets stray characters. Every name is followed by a
    ['\001'] mark where {!check_parser} puts a nonce. *)

val check_parser : string -> (unit, string) result
(** [check_parser template]: the in-place parser and the reference
    parser each read [template] with a fresh nonce at every mark, so
    each parse interns new symbols. They must agree on the rules and
    non-ground bodyless clauses, the fact blocks with their rows and
    positions, the {!Datalog.Parser.Error} position and message, the
    [eval.intern.lookups]/[hits]/[symbols] deltas, and the names
    interned, in order. Metrics are on for the two parses. *)

type bug = {
  seed : int;
  iter : int;
  kind : string;
      (** "cnf", "engine", "provenance", "parser" *)
  detail : string;                    (** instance family / solver label *)
  message : string;
  cnf : Gen.cnf option;               (** shrunk, for [kind = "cnf"] *)
  prog : Workloads.Randprog.t option; (** shrunk, for "engine" and "provenance" *)
  text : string option;
      (** shrunk source text, for "parser", with [0] at every nonce mark *)
}

type summary = {
  s_seed : int;
  s_iters : int;
  s_cnf_checks : int;
  s_engine_checks : int;
  s_prov_checks : int;
  s_parser_checks : int;
  s_bugs : bug list;  (** in discovery order *)
}

val run :
  ?solvers:cnf_solver list ->
  ?progress:(int -> unit) ->
  seed:int ->
  iters:int ->
  unit ->
  summary
(** The fuzz loop. [progress] is called with the iteration index before
    each iteration. *)

val reproducer : bug -> string * string
(** [(filename, contents)]: a [.cnf] or [.dl] file whose comment header
    records seed, iteration, kind and failure message.
    @raise Invalid_argument on a bug carrying no instance. *)

val write_reproducers : dir:string -> summary -> string list
(** Writes every bug's reproducer under [dir] (created on demand when
    there is something to write); returns the paths. *)

val pp_summary : Format.formatter -> summary -> unit
