open Datalog
module Metrics = Util.Metrics

let m_plans = Metrics.counter "analysis.plans"
let m_skip_acyclic = Metrics.counter "analysis.selection.skip_acyclicity"
let m_keep_acyclic = Metrics.counter "analysis.selection.keep_acyclicity"

type t = {
  classification : Classify.t;
  skip_acyclicity : bool;
  reason : string;
}

let compute program =
  let classification = Classify.classify program in
  let skip_acyclicity = not classification.Classify.recursive in
  let reason =
    if skip_acyclicity then
      Printf.sprintf "%s: every proof DAG is acyclic, acyclicity clauses dropped"
        (Classify.cls_name classification.Classify.cls)
    else
      Printf.sprintf "%s: recursive, acyclicity encoding required"
        (Classify.cls_name classification.Classify.cls)
  in
  { classification; skip_acyclicity; reason }

(* Encode.make consults the plan once per CNF build and batch workers
   encode on separate domains, so memoize per program by physical
   identity behind an atomic. Lost updates only cost a recomputation. *)
let cache : (Program.t * t) list Atomic.t = Atomic.make []
let cache_limit = 16

let plan program =
  Metrics.incr m_plans;
  let result =
    match List.find_opt (fun (p, _) -> p == program) (Atomic.get cache) with
    | Some (_, plan) -> plan
    | None ->
      let plan = compute program in
      let entries = (program, plan) :: Atomic.get cache in
      let entries =
        if List.length entries > cache_limit then
          List.filteri (fun i _ -> i < cache_limit) entries
        else entries
      in
      Atomic.set cache entries;
      plan
  in
  if result.skip_acyclicity then Metrics.incr m_skip_acyclic
  else Metrics.incr m_keep_acyclic;
  result

let skip_acyclicity program = (plan program).skip_acyclicity
