open Datalog

(* Observability (docs/OBSERVABILITY.md, "CNF encoder"). Clause counts
   are split by the formula component (φ_graph / φ_root / φ_proof /
   φ_acyclic) so that a --stats dump attributes encoding cost to the
   part of the construction that produced it; counters tick as clauses
   are emitted, so an encode aborted by [Too_large] still reports the
   work it did. *)
module Metrics = Util.Metrics

let m_encode_time = Metrics.timer "encode.build"
let m_encodes = Metrics.counter "encode.builds"
let m_hyperedges = Metrics.counter "encode.hyperedges"
let m_vars_node = Metrics.counter "encode.vars.node"
let m_vars_edge = Metrics.counter "encode.vars.edge"
let m_vars_hyperedge = Metrics.counter "encode.vars.hyperedge"
let m_vars_acyclic = Metrics.counter "encode.vars.acyclic"
let m_clauses_graph = Metrics.counter "encode.clauses.graph"
let m_clauses_root = Metrics.counter "encode.clauses.root"
let m_clauses_proof = Metrics.counter "encode.clauses.proof"
let m_clauses_acyclic = Metrics.counter "encode.clauses.acyclic"
let m_fill_edges = Metrics.counter "encode.fill_edges"
let m_elim_width = Metrics.histogram "encode.elim_width"
let m_acyclic_skipped = Metrics.counter "encode.acyclicity.skipped"
let m_acyclic_emitted = Metrics.counter "encode.acyclicity.emitted"

type acyclicity =
  | Transitive_closure
  | Vertex_elimination
  | No_acyclicity

(* Analysis-driven default: φ_acyclic is tautological (and therefore
   dropped) when the program is non-recursive — then the rule-instance
   graph of every database is a DAG — or when this specific closure's
   candidate edge set is one (recursive program, acyclic data). *)
let select_acyclicity closure =
  if
    Whyprov_analysis.Selection.skip_acyclicity (Closure.program closure)
    || Closure.graph_acyclic closure
  then No_acyclicity
  else Vertex_elimination

exception Too_large of string

type stats = {
  nodes : int;
  hyperedges : int;
  edges : int;
  variables : int;
  clauses : int;
  elimination_width : int;
  fill_edges : int;
  preprocess : Sat.Preprocess.stats option;
}

type t = {
  solver : Sat.Solver.t;
  db_facts_arr : Fact.t array;
  db_vars : int array;  (* x variables of [db_facts_arr], index-aligned *)
  stats : stats;
  captured : Sat.Lit.t list list option;
  yvars : int array;
  y_witness : Closure.hyperedge array;  (* rule instance of [yvars.(k)] *)
  root_fact : Fact.t;
  pre : Sat.Preprocess.t option;
}

(* Pairs of node ids, hashed as a single int (node counts stay well below
   2^31, so [i * n + j] is collision-free). *)
module Pair_table = Hashtbl

type elimination_order =
  | Min_degree
  | Input_order

let make ?acyclicity ?(elimination_order = Min_degree)
    ?(max_fill = max_int) ?(capture = false) ?(proof_logging = false)
    ?(preprocess = true) closure =
  Util.Tracing.with_span "encode.build" @@ fun () ->
  Metrics.time m_encode_time @@ fun () ->
  Metrics.incr m_encodes;
  let acyclicity =
    match acyclicity with
    | Some a -> a
    | None -> select_acyclicity closure
  in
  (match acyclicity with
  | No_acyclicity -> Metrics.incr m_acyclic_skipped
  | Transitive_closure | Vertex_elimination -> Metrics.incr m_acyclic_emitted);
  let solver = Sat.Solver.create () in
  if proof_logging then Sat.Solver.enable_proof_logging solver;
  let nclauses = ref 0 in
  let captured = ref [] in
  (* Which formula component clauses are currently charged to; the
     sections below reassign it as they start. *)
  let clause_group = ref m_clauses_graph in
  (* Clauses are staged rather than loaded directly, so the whole
     formula can go through {!Sat.Preprocess} before the solver sees
     it. [captured], the clause count and the per-component counters
     all describe the original formula. *)
  let built = ref [] in
  let add_clause lits =
    built := lits :: !built;
    if capture then captured := lits :: !captured;
    incr nclauses;
    Metrics.incr !clause_group
  in
  (* x_α variables: one per node, allocated first so that the node with
     closure id i has variable i. *)
  let nodes = Closure.nodes closure in
  let n = Array.length nodes in
  Sat.Solver.ensure_vars solver n;
  let xvar i = i in
  (* Hyperedges, pruned of self-loops (a hyperedge whose head occurs in
     its own target set can never appear in a compressed DAG); distinct
     rule instances with the same target set are equivalent for the
     encoding, so the first one in closure order stands for them all
     (it is the rule instance [witness_dag] reconstructs). *)
  let size = Closure.num_hyperedges closure in
  let seen_hyper = Hashtbl.create size in
  let kept = ref [] in
  Closure.iter_hyperedges closure (fun edge ->
      let key = (edge.Closure.head_id, edge.Closure.target_ids) in
      if (not (Array.mem edge.Closure.head_id edge.Closure.target_ids))
         && not (Hashtbl.mem seen_hyper key)
      then begin
        Hashtbl.add seen_hyper key ();
        kept := edge :: !kept
      end);
  (* Kept in reverse closure order: the z and y variables below are
     allocated from the last hyperedge to the first. Allocating them
     in closure order instead costs about a third more conflicts per
     member on dense cyclic graphs (EXPERIMENTS.md, "Numbered downward
     closures"). *)
  let hyperedges = Array.of_list !kept in
  let n_hyper = Array.length hyperedges in
  (* z_(α,β) variables: one per distinct directed edge occurring in some
     hyperedge. *)
  let zvar : (int, int) Pair_table.t = Pair_table.create size in
  let key i j = (i * n) + j in
  let out_neighbors = Array.make n [] in
  let in_neighbors = Array.make n [] in
  Array.iter
    (fun (edge : Closure.hyperedge) ->
      let i = edge.head_id in
      Array.iter
        (fun j ->
          if not (Pair_table.mem zvar (key i j)) then begin
            Pair_table.add zvar (key i j) (Sat.Solver.new_var solver);
            out_neighbors.(i) <- j :: out_neighbors.(i);
            in_neighbors.(j) <- i :: in_neighbors.(j)
          end)
        edge.target_ids)
    hyperedges;
  let n_edges = Pair_table.length zvar in
  let z i j = Pair_table.find zvar (key i j) in
  (* y_e variables: one per hyperedge. *)
  let yvars = Array.map (fun _ -> Sat.Solver.new_var solver) hyperedges in
  Metrics.add m_hyperedges n_hyper;
  Metrics.add m_vars_node n;
  Metrics.add m_vars_edge n_edges;
  Metrics.add m_vars_hyperedge n_hyper;
  if Util.Tracing.is_enabled () then
    Util.Tracing.instant "encode.sizes"
      ~args:
        [
          ("nodes", Metrics.Json.Num (float_of_int n));
          ("edges", Metrics.Json.Num (float_of_int n_edges));
          ("hyperedges", Metrics.Json.Num (float_of_int n_hyper));
        ];
  let open Sat.Lit in
  (* φ_graph: an edge forces both endpoints. *)
  clause_group := m_clauses_graph;
  Util.Tracing.with_span "encode.phi_graph" (fun () ->
      Pair_table.iter
        (fun k v ->
          let i = k / n and j = k mod n in
          add_clause [ neg v; pos (xvar i) ];
          add_clause [ neg v; pos (xvar j) ])
        zvar);
  (* φ_root: the root is in, has no incoming edge, and every other chosen
     node has at least one incoming edge. *)
  clause_group := m_clauses_root;
  Util.Tracing.with_span "encode.phi_root" (fun () ->
      let root_id = Closure.node_id closure (Closure.root closure) in
      add_clause [ pos (xvar root_id) ];
      List.iter (fun i -> add_clause [ neg (z i root_id) ]) in_neighbors.(root_id);
      for i = 0 to n - 1 do
        if i <> root_id then
          add_clause (neg (xvar i) :: List.map (fun p -> pos (z p i)) in_neighbors.(i))
      done);
  (* φ_proof: every chosen intensional node picks a hyperedge, and a
     picked hyperedge determines the exact out-edge set of its head. *)
  clause_group := m_clauses_proof;
  Util.Tracing.with_span "encode.phi_proof" (fun () ->
      let edges_of_head = Array.make n [] in
      Array.iteri
        (fun k (edge : Closure.hyperedge) ->
          edges_of_head.(edge.head_id) <- pos yvars.(k) :: edges_of_head.(edge.head_id))
        hyperedges;
      Array.iteri
        (fun i f ->
          if Program.is_idb (Closure.program closure) (Fact.pred f) then
            add_clause (neg (xvar i) :: edges_of_head.(i)))
        nodes;
      Array.iteri
        (fun k (edge : Closure.hyperedge) ->
          let yv = yvars.(k) and i = edge.head_id in
          List.iter
            (fun j ->
              if Array.mem j edge.target_ids then add_clause [ neg yv; pos (z i j) ]
              else add_clause [ neg yv; neg (z i j) ])
            out_neighbors.(i))
        hyperedges);
  (* φ_acyclic. *)
  clause_group := m_clauses_acyclic;
  let vars_before_acyclic = Sat.Solver.num_vars solver in
  let elimination_width = ref 0 in
  let fill_edges = ref 0 in
  Util.Tracing.with_span "encode.phi_acyclic" (fun () ->
  match acyclicity with
  | No_acyclicity ->
    (* Sound only when every candidate edge subset is acyclic — the
       condition [select_acyclicity] establishes; forcing it otherwise
       would admit cyclic "supports" that prove nothing. *)
    ()
  | Transitive_closure ->
    (* t_(i,j) for every ordered pair over nodes incident to edges. *)
    let tvar : (int, int) Pair_table.t = Pair_table.create n_edges in
    let tv i j =
      match Pair_table.find_opt tvar (key i j) with
      | Some v -> v
      | None ->
        let v = Sat.Solver.new_var solver in
        Pair_table.add tvar (key i j) v;
        v
    in
    (* z(i,j) ⇒ t(i,j) *)
    Pair_table.iter
      (fun k v ->
        let i = k / n and j = k mod n in
        add_clause [ neg v; pos (tv i j) ])
      zvar;
    (* z(i,j) ∧ t(j,l) ⇒ t(i,l) for every node l. *)
    Pair_table.iter
      (fun k v ->
        let i = k / n and j = k mod n in
        for l = 0 to n - 1 do
          add_clause [ neg v; neg (tv j l); pos (tv i l) ]
        done)
      zvar;
    for i = 0 to n - 1 do
      match Pair_table.find_opt tvar (key i i) with
      | Some v -> add_clause [ neg v ]
      | None -> ()
    done
  | Vertex_elimination ->
    (* Rankooh & Rintanen (AAAI 2022): eliminate vertices in min-degree
       order; composition clauses through the eliminated vertex, with
       fill edges added to keep the remaining graph closed; finally
       forbid 2-cycles among all potential edges. *)
    (* The potential-edge layer is distinct from the structural z
       variables: compositions may only force auxiliary e variables,
       never structural edges (z(i,j) ⇒ e(i,j) one way only). *)
    let evar : (int, int) Pair_table.t = Pair_table.create n_edges in
    Pair_table.iter
      (fun k zv ->
        let ev = Sat.Solver.new_var solver in
        Pair_table.add evar k ev;
        add_clause Sat.Lit.[ neg zv; pos ev ])
      zvar;
    let e_opt i j = Pair_table.find_opt evar (key i j) in
    let ensure_e i j =
      match e_opt i j with
      | Some v -> v
      | None ->
        incr fill_edges;
        if !fill_edges > max_fill then
          raise
            (Too_large
               (Printf.sprintf "vertex elimination exceeded %d fill edges" max_fill));
        let v = Sat.Solver.new_var solver in
        Pair_table.add evar (key i j) v;
        v
    in
    (* Undirected adjacency on live vertices. *)
    let adj = Array.init n (fun _ -> Hashtbl.create 4) in
    let connect i j =
      if i <> j then begin
        Hashtbl.replace adj.(i) j ();
        Hashtbl.replace adj.(j) i ()
      end
    in
    Pair_table.iter
      (fun k _ ->
        let i = k / n and j = k mod n in
        connect i j)
      zvar;
    let eliminated = Array.make n false in
    (* Lazy min-degree priority queue: (degree, vertex) pairs, stale
       entries skipped on pop. With [Input_order] the queue degenerates
       to node order, which the ablation uses to show how much the
       ordering heuristic matters. *)
    let module Pq = Set.Make (struct
      type t = int * int
      let compare = compare
    end) in
    let pq = ref Pq.empty in
    let key_of i =
      match elimination_order with
      | Min_degree -> Hashtbl.length adj.(i)
      | Input_order -> i
    in
    for i = 0 to n - 1 do
      pq := Pq.add (key_of i, i) !pq
    done;
    for _ = 1 to n do
      (* Pop the live vertex with the smallest current key. *)
      let rec pop () =
        match Pq.min_elt_opt !pq with
        | None -> None
        | Some ((d, v) as entry) ->
          pq := Pq.remove entry !pq;
          if eliminated.(v) || key_of v <> d then pop () else Some v
      in
      match pop () with
      | None -> ()
      | Some v ->
        eliminated.(v) <- true;
        let neighbors = Hashtbl.fold (fun u () acc -> u :: acc) adj.(v) [] in
        elimination_width := max !elimination_width (List.length neighbors);
        (* Composition clauses and fill edges. *)
        List.iter
          (fun u ->
            List.iter
              (fun w ->
                if u <> w then
                  match e_opt u v, e_opt v w with
                  | Some euv, Some evw ->
                    let euw = ensure_e u w in
                    add_clause Sat.Lit.[ neg euv; neg evw; pos euw ];
                    connect u w
                  | _ -> ())
              neighbors;
            (* Also keep the elimination graph chordal: all neighbor
               pairs become adjacent regardless of directions. *)
            List.iter (fun w -> if u < w then connect u w) neighbors)
          neighbors;
        (* Remove v from the live graph. *)
        List.iter
          (fun u ->
            Hashtbl.remove adj.(u) v;
            pq := Pq.add (key_of u, u) !pq)
          neighbors;
        Hashtbl.reset adj.(v)
    done;
    (* Forbid 2-cycles among potential edges. *)
    Pair_table.iter
      (fun k v ->
        let i = k / n and j = k mod n in
        if i < j then
          match e_opt j i with
          | Some v' -> add_clause Sat.Lit.[ neg v; neg v' ]
          | None -> ())
      evar);
  Metrics.add m_vars_acyclic (Sat.Solver.num_vars solver - vars_before_acyclic);
  Metrics.add m_fill_edges !fill_edges;
  Metrics.observe_int m_elim_width !elimination_width;
  let db_vars = Closure.db_ids closure in
  let built = List.rev !built in
  let pre =
    if not preprocess then begin
      List.iter (Sat.Solver.add_clause solver) built;
      None
    end
    else begin
      (* Freeze the db-fact x variables: the enumerator reads them from
         models ([db_of_model]) and writes them into blocking clauses
         and assumptions, so elimination must not touch them. Variables
         allocated after this point (cardinality outputs in
         smallest-first mode) never pass through the preprocessor at
         all. Everything else — z/y/e auxiliaries — may be eliminated;
         [witness_dag] re-extends models over them. *)
      let nvars = Sat.Solver.num_vars solver in
      let frozen = Array.make nvars false in
      Array.iter (fun v -> frozen.(v) <- true) db_vars;
      let p =
        Sat.Preprocess.simplify ~drat:proof_logging ~nvars
          ~frozen:(fun v -> v < nvars && frozen.(v))
          built
      in
      (* The preprocessor's derivation precedes the simplified clauses
         in the trace, keeping the DRAT proof checkable against the
         original formula. *)
      if proof_logging then Sat.Solver.append_proof solver (Sat.Preprocess.proof p);
      List.iter (Sat.Solver.add_clause solver) (Sat.Preprocess.clauses p);
      Some p
    end
  in
  {
    solver;
    db_facts_arr = Array.map (fun v -> nodes.(v)) db_vars;
    db_vars;
    captured = (if capture then Some !captured else None);
    yvars;
    y_witness = hyperedges;
    root_fact = Closure.root closure;
    pre;
    stats =
      {
        nodes = n;
        hyperedges = n_hyper;
        edges = n_edges;
        variables = Sat.Solver.num_vars solver;
        clauses = !nclauses;
        elimination_width = !elimination_width;
        fill_edges = !fill_edges;
        preprocess = Option.map Sat.Preprocess.stats pre;
      };
  }

let solver t = t.solver
let db_facts t = t.db_facts_arr
let db_vars t = t.db_vars

let db_of_model t model =
  let member = ref Fact.Set.empty in
  Array.iteri
    (fun k v ->
      if v < Array.length model && model.(v) then
        member := Fact.Set.add t.db_facts_arr.(k) !member)
    t.db_vars;
  !member

let literals t positive =
  Array.to_list
    (Array.mapi
       (fun k v -> if positive t.db_facts_arr.(k) then Sat.Lit.pos v else Sat.Lit.neg v)
       t.db_vars)

let blocking_clause t member = literals t (fun f -> not (Fact.Set.mem f member))

let assumptions_for t candidate =
  let in_closure =
    Array.fold_left (fun acc f -> Fact.Set.add f acc) Fact.Set.empty t.db_facts_arr
  in
  if not (Fact.Set.subset candidate in_closure) then None
  else Some (literals t (fun f -> Fact.Set.mem f candidate))

let stats t = t.stats

let captured_clauses t = t.captured

let witness_dag t model =
  (* Reconstruct the compressed proof DAG chosen by the model: each
     intensional fact's node uses the representative rule instance of
     its selected hyperedge, with one child per body atom. The y
     variables it reads may have been eliminated by preprocessing, so
     the model is first re-extended to the original formula. *)
  let model =
    match t.pre with
    | Some p -> Sat.Preprocess.extend_model p model
    | None -> model
  in
  let chosen : Closure.hyperedge Fact.Table.t = Fact.Table.create 64 in
  Array.iteri
    (fun k yv ->
      if yv < Array.length model && model.(yv) then
        Fact.Table.replace chosen t.y_witness.(k).Closure.head t.y_witness.(k))
    t.yvars;
  let nodes = ref [] in
  let ids : int Fact.Table.t = Fact.Table.create 64 in
  let next_id = ref 0 in
  let rec node_of fact =
    match Fact.Table.find_opt ids fact with
    | Some id -> id
    | None -> (
      let id = !next_id in
      incr next_id;
      Fact.Table.add ids fact id;
      match Fact.Table.find_opt chosen fact with
      | None ->
        nodes := (id, { Proof_dag.fact; rule = None; children = [] }) :: !nodes;
        id
      | Some edge ->
        let children = List.map node_of edge.Closure.body in
        nodes :=
          (id, { Proof_dag.fact; rule = Some edge.Closure.rule; children })
          :: !nodes;
        id)
  in
  let root = node_of t.root_fact in
  let array = Array.make !next_id { Proof_dag.fact = t.root_fact; rule = None; children = [] } in
  List.iter (fun (id, node) -> array.(id) <- node) !nodes;
  { Proof_dag.root = root; nodes = array }
