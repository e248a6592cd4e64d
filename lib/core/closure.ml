open Datalog

(* Observability (docs/OBSERVABILITY.md, "Downward closure"). All
   counters are cumulative over every closure built in the process;
   per-build figures remain available through [pp_stats]/accessors. *)
module Metrics = Util.Metrics

let m_builds = Metrics.counter "closure.builds"
let m_nodes = Metrics.counter "closure.nodes"
let m_rule_instances = Metrics.counter "closure.rule_instances"
let m_db_facts = Metrics.counter "closure.db_facts"
let m_cache_hits = Metrics.counter "closure.cache_hits"
let m_cache_misses = Metrics.counter "closure.cache_misses"

type hyperedge = {
  head : Fact.t;
  head_id : int;
  rule : Rule.t;
  body : Fact.t list;
  targets : Fact.t list;
  target_ids : int array;
}

type t = {
  program : Program.t;
  root : Fact.t;
  nodes : Fact.t array;  (* sorted: a node's id is its index *)
  ids : int Fact.Table.t;  (* node -> id *)
  edges : hyperedge array array;  (* by head id *)
  db_ids : int array;  (* ascending *)
  derivable : bool;
  n_edges : int;
}

(* The traversal is parameterized over how rule instances are obtained,
   so that batch enumeration can memoize [Eval.derivations] across the
   closures of many answer tuples of the same materialization.

   Facts are numbered in discovery (breadth-first) order while the
   traversal runs; once it ends, the nodes are sorted and every id —
   table values and target ids alike — is renumbered to the sorted
   position, so ids ascend with [Fact.compare]. *)
let build_from ~derivations program db root_fact ~derivable =
  let targs =
    if Util.Tracing.is_enabled () then
      [ ("root", Metrics.Json.Str (Fact.to_string root_fact)) ]
    else []
  in
  Util.Tracing.with_span ~args:targs "closure.build" @@ fun () ->
  Metrics.incr m_builds;
  let ids : int Fact.Table.t = Fact.Table.create 16 in
  let found = Util.Vec.create () in
  (* Per discovered fact, in discovery order: its rule instances with
     the discovery ids of their targets. *)
  let instances = Util.Vec.create () in
  let discover fact =
    match Fact.Table.find ids fact with
    | i -> i
    | exception Not_found ->
      let i = Util.Vec.length found in
      Fact.Table.add ids fact i;
      Util.Vec.push found fact;
      i
  in
  ignore (discover root_fact);
  let n_edges = ref 0 in
  while Util.Vec.length instances < Util.Vec.length found do
    let fact = Util.Vec.get found (Util.Vec.length instances) in
    let ds =
      if Program.is_idb program (Fact.pred fact) then derivations fact else []
    in
    n_edges := !n_edges + List.length ds;
    Util.Vec.push instances
      (List.map
         (fun (rule, body) ->
           let targets = List.sort_uniq Fact.compare body in
           let target_ids = Array.make (List.length targets) 0 in
           List.iteri (fun k f -> target_ids.(k) <- discover f) targets;
           (rule, body, targets, target_ids))
         ds)
  done;
  let found = Util.Vec.to_array found in
  let n = Array.length found in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Fact.compare found.(i) found.(j)) order;
  let rank = Array.make n 0 in
  Array.iteri (fun id i -> rank.(i) <- id) order;
  Fact.Table.filter_map_inplace (fun _ i -> Some rank.(i)) ids;
  let nodes = Array.map (Array.get found) order in
  let edges =
    Array.mapi
      (fun head_id i ->
        Array.of_list
          (List.map
             (fun (rule, body, targets, target_ids) ->
               Array.iteri (fun k t -> target_ids.(k) <- rank.(t)) target_ids;
               { head = nodes.(head_id); head_id; rule; body; targets; target_ids })
             (Util.Vec.get instances i)))
      order
  in
  let db_ids =
    List.init n Fun.id
    |> List.filter (fun i -> Database.mem db nodes.(i))
    |> Array.of_list
  in
  Metrics.add m_nodes n;
  Metrics.add m_rule_instances !n_edges;
  Metrics.add m_db_facts (Array.length db_ids);
  { program; root = root_fact; nodes; ids; edges; db_ids; derivable;
    n_edges = !n_edges }

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
let nodes t = t.nodes
let node_id t fact = Fact.Table.find t.ids fact
let num_nodes t = Array.length t.nodes
let num_hyperedges t = t.n_edges

let hyperedges_of t fact =
  match Fact.Table.find_opt t.ids fact with
  | Some i -> t.edges.(i)
  | None -> [||]

let iter_hyperedges t f = Array.iter (Array.iter f) t.edges
let db_ids t = t.db_ids
let db_facts t = Array.fold_right (fun i acc -> t.nodes.(i) :: acc) t.db_ids []
let derivable t = t.derivable

exception Cyclic

let graph_acyclic t =
  (* The candidate edge set exactly as the encoder sees it: one edge
     head → target per hyperedge, with self-loop hyperedges (head ∈
     targets) excluded, because [Encode.make] prunes those. If this
     graph is a DAG, every subset of the z-edges is acyclic and the
     acyclicity clauses of the encoding are tautological. *)
  let state = Array.make (num_nodes t) 0 in
  (* 1 = on the DFS stack, 2 = done *)
  let rec visit i =
    match state.(i) with
    | 1 -> raise Cyclic
    | 2 -> ()
    | _ ->
      state.(i) <- 1;
      Array.iter
        (fun e ->
          if not (Array.mem i e.target_ids) then Array.iter visit e.target_ids)
        t.edges.(i);
      state.(i) <- 2
  in
  match Array.iteri (fun i _ -> visit i) t.nodes with
  | () -> true
  | exception Cyclic -> false

let pp_stats ppf t =
  Format.fprintf ppf "closure of %a: %d nodes, %d hyperedges, %d db facts"
    Fact.pp t.root (num_nodes t) t.n_edges
    (Array.length t.db_ids)
