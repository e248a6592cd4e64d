open Datalog

(* Observability (docs/OBSERVABILITY.md, "Downward closure"). All
   counters are cumulative over every closure built in the process;
   per-build figures remain available through [pp_stats]/accessors. *)
module Metrics = Util.Metrics

let m_build_time = Metrics.timer "closure.build"
let m_builds = Metrics.counter "closure.builds"
let m_nodes = Metrics.counter "closure.nodes"
let m_rule_instances = Metrics.counter "closure.rule_instances"
let m_db_facts = Metrics.counter "closure.db_facts"
let m_cache_hits = Metrics.counter "closure.cache_hits"
let m_cache_misses = Metrics.counter "closure.cache_misses"

type hyperedge = {
  head : Fact.t;
  rule : Rule.t;
  body : Fact.t list;
  targets : Fact.t list;
}

type t = {
  program : Program.t;
  root : Fact.t;
  edges_by_head : hyperedge list Fact.Table.t;
  node_table : unit Fact.Table.t;
  node_list : Fact.t list;
  db_in_closure : Fact.t list;
  derivable : bool;
  n_edges : int;
}

(* The traversal is parameterized over how rule instances are obtained,
   so that batch enumeration can memoize [Eval.derivations] across the
   closures of many answer tuples of the same materialization. *)
let build_from ~derivations program db root_fact ~derivable =
  let targs =
    if Util.Tracing.is_enabled () then
      [ ("root", Metrics.Json.Str (Fact.to_string root_fact)) ]
    else []
  in
  Util.Tracing.with_span ~args:targs "closure.build" @@ fun () ->
  Metrics.time m_build_time @@ fun () ->
  Metrics.incr m_builds;
  let edges_by_head : hyperedge list Fact.Table.t = Fact.Table.create 1024 in
  let visited : unit Fact.Table.t = Fact.Table.create 1024 in
  let queue = Queue.create () in
  let n_edges = ref 0 in
  Fact.Table.add visited root_fact ();
  Queue.add root_fact queue;
  while not (Queue.is_empty queue) do
    let fact = Queue.pop queue in
    if Program.is_idb program (Fact.pred fact) then begin
      let ds = derivations fact in
      let edges =
        List.map
          (fun (rule, body) ->
            let targets = List.sort_uniq Fact.compare body in
            { head = fact; rule; body; targets })
          ds
      in
      n_edges := !n_edges + List.length edges;
      Fact.Table.replace edges_by_head fact edges;
      List.iter
        (fun edge ->
          List.iter
            (fun target ->
              if not (Fact.Table.mem visited target) then begin
                Fact.Table.add visited target ();
                Queue.add target queue
              end)
            edge.targets)
        edges
    end
  done;
  let node_list =
    Fact.Table.fold (fun f () acc -> f :: acc) visited []
    |> List.sort Fact.compare
  in
  let db_in_closure = List.filter (Database.mem db) node_list in
  Metrics.add m_nodes (List.length node_list);
  Metrics.add m_rule_instances !n_edges;
  Metrics.add m_db_facts (List.length db_in_closure);
  {
    program;
    root = root_fact;
    edges_by_head;
    node_table = visited;
    node_list;
    db_in_closure;
    derivable;
    n_edges = !n_edges;
  }

let build_with_model program ~model db root_fact =
  build_from
    ~derivations:(fun fact -> Eval.derivations program model fact)
    program db root_fact
    ~derivable:(Database.mem model root_fact)

let build program db root_fact =
  let model = Eval.seminaive program db in
  build_with_model program ~model db root_fact

(* --- Shared grounded-instance cache ------------------------------------ *)

(* Batch enumeration builds one closure per answer tuple of the same
   materialized model; tuples of one query share most of their downward
   closures, so the [Eval.derivations] call — the expensive part of the
   backward traversal, a join per rule defining the fact — is memoized
   here and shared across builds. Not domain-safe: the batch subsystem
   builds all closures on the coordinating domain and only fans out the
   encode/enumerate work. *)
type instance_cache = {
  ic_program : Program.t;
  ic_model : Database.t;
  ic_table : (Rule.t * Fact.t list) list Fact.Table.t;
  mutable ic_hits : int;
  mutable ic_misses : int;
}

let instance_cache program ~model =
  {
    ic_program = program;
    ic_model = model;
    ic_table = Fact.Table.create 1024;
    ic_hits = 0;
    ic_misses = 0;
  }

let cached_derivations cache fact =
  match Fact.Table.find_opt cache.ic_table fact with
  | Some ds ->
    cache.ic_hits <- cache.ic_hits + 1;
    Metrics.incr m_cache_hits;
    ds
  | None ->
    let ds = Eval.derivations cache.ic_program cache.ic_model fact in
    cache.ic_misses <- cache.ic_misses + 1;
    Metrics.incr m_cache_misses;
    Fact.Table.add cache.ic_table fact ds;
    ds

let build_cached cache db root_fact =
  build_from
    ~derivations:(cached_derivations cache)
    cache.ic_program db root_fact
    ~derivable:(Database.mem cache.ic_model root_fact)

let cache_model cache = cache.ic_model
let cache_hits cache = cache.ic_hits
let cache_misses cache = cache.ic_misses

let root t = t.root
let program t = t.program
let nodes t = t.node_list
let num_nodes t = List.length t.node_list
let num_hyperedges t = t.n_edges

let hyperedges_of t fact =
  Option.value ~default:[] (Fact.Table.find_opt t.edges_by_head fact)

let iter_hyperedges t f =
  Fact.Table.iter (fun _ edges -> List.iter f edges) t.edges_by_head

let db_facts t = t.db_in_closure
let mem_node t fact = Fact.Table.mem t.node_table fact
let derivable t = t.derivable

exception Cyclic

let graph_acyclic t =
  (* The candidate edge set exactly as the encoder sees it: one edge
     head → target per hyperedge, with self-loop hyperedges (head ∈
     targets) excluded, because [Encode.make] prunes those. If this
     graph is a DAG, every subset of the z-edges is acyclic and the
     acyclicity clauses of the encoding are tautological. *)
  let state : int Fact.Table.t = Fact.Table.create 256 in
  (* 1 = on the DFS stack, 2 = done *)
  let rec visit f =
    match Fact.Table.find_opt state f with
    | Some 1 -> raise Cyclic
    | Some _ -> ()
    | None ->
      Fact.Table.replace state f 1;
      List.iter
        (fun e ->
          if not (List.exists (Fact.equal e.head) e.targets) then
            List.iter visit e.targets)
        (hyperedges_of t f);
      Fact.Table.replace state f 2
  in
  match List.iter visit t.node_list with
  | () -> true
  | exception Cyclic -> false

let pp_stats ppf t =
  Format.fprintf ppf "closure of %a: %d nodes, %d hyperedges, %d db facts"
    Fact.pp t.root (num_nodes t) t.n_edges
    (List.length t.db_in_closure)
