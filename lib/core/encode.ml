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
  node_var : int Fact.Table.t;
  db_facts_arr : Fact.t array;
  stats : stats;
  captured : Sat.Lit.t list list option;
  y_witness : (int, Closure.hyperedge) Hashtbl.t;
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
  let node_list = Closure.nodes closure in
  let n = List.length node_list in
  let nodes = Array.of_list node_list in
  let id_of : int Fact.Table.t = Fact.Table.create (2 * n) in
  Array.iteri (fun i f -> Fact.Table.add id_of f i) nodes;
  (* x_α variables: one per node, allocated first so that node i has
     variable i. *)
  Sat.Solver.ensure_vars solver n;
  let node_var : int Fact.Table.t = Fact.Table.create (2 * n) in
  Array.iteri (fun i f -> Fact.Table.add node_var f i) nodes;
  let xvar i = i in
  (* Hyperedges, pruned of self-loops (a hyperedge whose head occurs in
     its own target set can never appear in a compressed DAG). *)
  let hyperedges = ref [] in
  let n_hyper = ref 0 in
  let seen_hyper = Hashtbl.create 1024 in
  Closure.iter_hyperedges closure (fun edge ->
      let head_id = Fact.Table.find id_of edge.Closure.head in
      let target_ids =
        List.sort Int.compare
          (List.map (fun f -> Fact.Table.find id_of f) edge.Closure.targets)
      in
      (* Self-loop hyperedges can never appear in a compressed DAG;
         distinct rule instances with the same target set are equivalent
         for the encoding. *)
      if (not (List.mem head_id target_ids))
         && not (Hashtbl.mem seen_hyper (head_id, target_ids))
      then begin
        Hashtbl.add seen_hyper (head_id, target_ids) ();
        incr n_hyper;
        hyperedges := (head_id, target_ids) :: !hyperedges
      end);
  let hyperedges = !hyperedges in
  (* z_(α,β) variables: one per distinct directed edge occurring in some
     hyperedge. *)
  let zvar : (int, int) Pair_table.t = Pair_table.create 1024 in
  let key i j = (i * n) + j in
  let out_neighbors : (int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let in_neighbors : (int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let note tbl i j =
    match Hashtbl.find_opt tbl i with
    | Some l -> if not (List.mem j !l) then l := j :: !l
    | None -> Hashtbl.add tbl i (ref [ j ])
  in
  List.iter
    (fun (head_id, target_ids) ->
      List.iter
        (fun target ->
          if not (Pair_table.mem zvar (key head_id target)) then begin
            let v = Sat.Solver.new_var solver in
            Pair_table.add zvar (key head_id target) v;
            note out_neighbors head_id target;
            note in_neighbors target head_id
          end)
        target_ids)
    hyperedges;
  let n_edges = Pair_table.length zvar in
  let z i j = Pair_table.find zvar (key i j) in
  (* y_e variables: one per hyperedge. *)
  let yvars =
    List.map (fun edge -> (Sat.Solver.new_var solver, edge)) hyperedges
  in
  (* Keep one representative full hyperedge (rule + ordered body) per
     deduplicated (head, targets) pair, for witness reconstruction. *)
  let y_witness : (int, Closure.hyperedge) Hashtbl.t = Hashtbl.create 256 in
  let repr_of : (int * int list, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (yv, (head_id, target_ids)) -> Hashtbl.replace repr_of (head_id, target_ids) yv)
    yvars;
  Closure.iter_hyperedges closure (fun edge ->
      let head_id = Fact.Table.find id_of edge.Closure.head in
      let target_ids =
        List.sort Int.compare
          (List.map (fun f -> Fact.Table.find id_of f) edge.Closure.targets)
      in
      match Hashtbl.find_opt repr_of (head_id, target_ids) with
      | Some yv -> if not (Hashtbl.mem y_witness yv) then Hashtbl.add y_witness yv edge
      | None -> ());
  Metrics.add m_hyperedges !n_hyper;
  Metrics.add m_vars_node n;
  Metrics.add m_vars_edge n_edges;
  Metrics.add m_vars_hyperedge (List.length yvars);
  if Util.Tracing.is_enabled () then
    Util.Tracing.instant "encode.sizes"
      ~args:
        [
          ("nodes", Metrics.Json.Num (float_of_int n));
          ("edges", Metrics.Json.Num (float_of_int n_edges));
          ("hyperedges", Metrics.Json.Num (float_of_int !n_hyper));
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
      let root_id = Fact.Table.find id_of (Closure.root closure) in
      add_clause [ pos (xvar root_id) ];
      (match Hashtbl.find_opt in_neighbors root_id with
      | Some preds -> List.iter (fun i -> add_clause [ neg (z i root_id) ]) !preds
      | None -> ());
      Array.iteri
        (fun i _ ->
          if i <> root_id then begin
            let incoming =
              match Hashtbl.find_opt in_neighbors i with
              | Some preds -> List.map (fun p -> pos (z p i)) !preds
              | None -> []
            in
            add_clause (neg (xvar i) :: incoming)
          end)
        nodes);
  (* φ_proof: every chosen intensional node picks a hyperedge, and a
     picked hyperedge determines the exact out-edge set of its head. *)
  clause_group := m_clauses_proof;
  Util.Tracing.with_span "encode.phi_proof" (fun () ->
      let edges_of_head : (int, (int * int list) list ref) Hashtbl.t =
        Hashtbl.create 256
      in
      List.iter
        (fun (yv, (head_id, target_ids)) ->
          match Hashtbl.find_opt edges_of_head head_id with
          | Some l -> l := (yv, target_ids) :: !l
          | None -> Hashtbl.add edges_of_head head_id (ref [ (yv, target_ids) ]))
        yvars;
      Array.iteri
        (fun i f ->
          if Program.is_idb (Closure.program closure) (Fact.pred f) then begin
            let choices =
              match Hashtbl.find_opt edges_of_head i with
              | Some l -> List.map (fun (yv, _) -> pos yv) !l
              | None -> []
            in
            add_clause (neg (xvar i) :: choices)
          end)
        nodes;
      List.iter
        (fun (yv, (head_id, target_ids)) ->
          let all_targets =
            match Hashtbl.find_opt out_neighbors head_id with
            | Some l -> !l
            | None -> []
          in
          List.iter
            (fun target ->
              if List.mem target target_ids then
                add_clause [ neg yv; pos (z head_id target) ]
              else add_clause [ neg yv; neg (z head_id target) ])
            all_targets)
        yvars);
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
    let tvar : (int, int) Pair_table.t = Pair_table.create 1024 in
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
    let evar : (int, int) Pair_table.t = Pair_table.create 1024 in
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
  let db_facts_arr = Array.of_list (Closure.db_facts closure) in
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
      Array.iter
        (fun f ->
          match Fact.Table.find_opt node_var f with
          | Some v -> frozen.(v) <- true
          | None -> ())
        db_facts_arr;
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
    node_var;
    db_facts_arr;
    captured = (if capture then Some !captured else None);
    y_witness;
    root_fact = Closure.root closure;
    pre;
    stats =
      {
        nodes = n;
        hyperedges = !n_hyper;
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
let fact_var t f = Fact.Table.find_opt t.node_var f

let db_of_model t model =
  Array.fold_left
    (fun acc f ->
      let v = Fact.Table.find t.node_var f in
      if v < Array.length model && model.(v) then Fact.Set.add f acc else acc)
    Fact.Set.empty t.db_facts_arr

let blocking_clause t member =
  Array.to_list t.db_facts_arr
  |> List.map (fun f ->
         let v = Fact.Table.find t.node_var f in
         if Fact.Set.mem f member then Sat.Lit.neg v else Sat.Lit.pos v)

let assumptions_for t candidate =
  let in_closure =
    Array.fold_left (fun acc f -> Fact.Set.add f acc) Fact.Set.empty t.db_facts_arr
  in
  if not (Fact.Set.subset candidate in_closure) then None
  else
    Some
      (Array.to_list t.db_facts_arr
      |> List.map (fun f ->
             let v = Fact.Table.find t.node_var f in
             if Fact.Set.mem f candidate then Sat.Lit.pos v else Sat.Lit.neg v))

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
  Hashtbl.iter
    (fun yv edge ->
      if yv < Array.length model && model.(yv) then
        Fact.Table.replace chosen edge.Closure.head edge)
    t.y_witness;
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
