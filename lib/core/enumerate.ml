open Datalog

(* Observability (docs/OBSERVABILITY.md, "Enumerator"). Each solver
   descent is timed into the enum.solve_us histogram — the per-witness
   delay distribution of the paper's Figures 2/4 — while the enum.next
   span carries the stage total (enum.solve and sat.solve nest under
   it). *)
module Metrics = Util.Metrics
module Tracing = Util.Tracing

let m_members = Metrics.counter "enum.members"
let m_blocking_clauses = Metrics.counter "enum.blocking_clauses"
let m_blocking_literals = Metrics.counter "enum.blocking_literals"
let m_exhausted = Metrics.counter "enum.exhausted"
let m_gave_up = Metrics.counter "enum.gave_up"
let m_card_raises = Metrics.counter "enum.card_bound_raises"
let m_membership_checks = Metrics.counter "enum.membership_checks"
let m_solve_us = Metrics.histogram "enum.solve_us"

(* One clock source for the per-descent delay: the histogram sample and
   the enum.solve trace span bracket the same call, so they can't
   disagree. *)
let timed_solve ?assumptions solver =
  Tracing.with_span "enum.solve" @@ fun () ->
  Metrics.observe_span_us m_solve_us @@ fun () ->
  Sat.Solver.solve ?assumptions solver

module Set_of_sets = Set.Make (struct
  type t = Fact.Set.t
  let compare = Fact.Set.compare
end)

type t = {
  closure : Closure.t;
  encoding : Encode.t;
  mutable exhausted : bool;
  mutable produced_set : Set_of_sets.t;
  (* Smallest-first mode: totalizer outputs over the x variables of the
     database facts, and the current cardinality bound. *)
  card_outputs : Sat.Lit.t array option;
  mutable card_bound : int;
}

let of_parts ?(smallest_first = false) closure encoding =
  let card_outputs =
    if not smallest_first then None
    else begin
      let solver = Encode.solver encoding in
      let lits = Array.to_list (Array.map Sat.Lit.pos (Encode.db_vars encoding)) in
      Some (Sat.Cardinality.outputs solver lits)
    end
  in
  {
    closure;
    encoding;
    exhausted = not (Closure.derivable closure);
    produced_set = Set_of_sets.empty;
    card_outputs;
    card_bound = 0;
  }

let of_closure ?acyclicity ?max_fill ?smallest_first ?preprocess closure =
  of_parts ?smallest_first closure
    (Encode.make ?acyclicity ?max_fill ?preprocess closure)

let create ?acyclicity ?max_fill ?smallest_first ?preprocess program db fact =
  of_closure ?acyclicity ?max_fill ?smallest_first ?preprocess
    (Closure.build program db fact)

let record_member ?(want_witness = false) t solver =
  let model = Sat.Solver.model solver in
  let member = Encode.db_of_model t.encoding model in
  let witness =
    if want_witness then Some (Encode.witness_dag t.encoding model) else None
  in
  let blocking = Encode.blocking_clause t.encoding member in
  Sat.Solver.add_clause solver blocking;
  Metrics.incr m_members;
  Metrics.incr m_blocking_clauses;
  Metrics.add m_blocking_literals (List.length blocking);
  (* One instant per model found / blocking clause added: in the trace,
     these separate the blocking-clause rounds inside an enum.next span. *)
  if Tracing.is_enabled () then
    Tracing.instant "enum.member"
      ~args:
        [
          ("support_size", Metrics.Json.Num (float_of_int (Fact.Set.cardinal member)));
          ("blocking_literals", Metrics.Json.Num (float_of_int (List.length blocking)));
        ];
  t.produced_set <- Set_of_sets.add member t.produced_set;
  (member, witness)

let exhaust t =
  t.exhausted <- true;
  Metrics.incr m_exhausted;
  Tracing.instant "enum.exhausted"

(* One enumeration step, shared by [next] and [next_with_witness]. In
   smallest-first mode the cardinality bound is raised only when no
   member of the current size remains, so members come out in
   non-decreasing support size. *)
let step ~want_witness t =
  if t.exhausted then None
  else
    Tracing.with_span "enum.next" @@ fun () ->
    let solver = Encode.solver t.encoding in
    let below_cap () =
      match t.card_outputs with
      | Some outputs when t.card_bound < Array.length outputs -> Some outputs
      | _ -> None
    in
    let rec attempt () =
      let assumptions =
        match below_cap () with
        | Some outputs -> [ Sat.Lit.negate outputs.(t.card_bound) ]
        | None -> []
      in
      match timed_solve ~assumptions solver with
      | Sat.Solver.Sat -> Some (record_member ~want_witness t solver)
      | Sat.Solver.Unsat -> (
        match below_cap () with
        | Some _ ->
          t.card_bound <- t.card_bound + 1;
          Metrics.incr m_card_raises;
          attempt ()
        | None ->
          exhaust t;
          None)
    in
    attempt ()

let next t = Option.map fst (step ~want_witness:false t)

let next_limited ~conflict_budget t =
  if t.exhausted then `Exhausted
  else
    Tracing.with_span "enum.next" @@ fun () ->
    let solver = Encode.solver t.encoding in
    match Sat.Solver.solve_limited ~conflict_budget solver with
    | None ->
      Metrics.incr m_gave_up;
      `Gave_up
    | Some Sat.Solver.Unsat ->
      exhaust t;
      `Exhausted
    | Some Sat.Solver.Sat -> `Member (fst (record_member t solver))

let to_list ?limit t =
  let rec loop acc k =
    match limit with
    | Some l when k >= l -> List.rev acc
    | _ -> (
      match next t with
      | None -> List.rev acc
      | Some member -> loop (member :: acc) (k + 1))
  in
  loop [] 0

let count ?limit t = List.length (to_list ?limit t)

let closure t = t.closure
let encoding t = t.encoding

let member t candidate =
  Metrics.incr m_membership_checks;
  if Set_of_sets.mem candidate t.produced_set then true
  else
    match Encode.assumptions_for t.encoding candidate with
    | None -> false
    | Some assumptions -> (
      match Sat.Solver.solve ~assumptions (Encode.solver t.encoding) with
      | Sat.Solver.Sat -> true
      | Sat.Solver.Unsat -> false)

let next_with_witness t =
  match step ~want_witness:true t with
  | None -> None
  | Some (member, Some dag) -> Some (member, dag)
  | Some (_, None) -> assert false
