open Datalog
module Metrics = Util.Metrics

let m_classify = Metrics.counter "analysis.classifications"

type cls =
  | Nrdat
  | Ldat
  | Pwl_dat
  | Dat

type scc = {
  preds : Symbol.t list;
  recursive : bool;
  stratum : int;
}

type t = {
  cls : cls;
  linear : bool;
  recursive : bool;
  piecewise_linear : bool;
  sccs : scc list;
  strata : int;
  recursive_sccs : int;
}

let cls_name = function
  | Nrdat -> "NRDat"
  | Ldat -> "LDat"
  | Pwl_dat -> "PwlDat"
  | Dat -> "Dat"

let cls_describe = function
  | Nrdat -> "non-recursive"
  | Ldat -> "linear recursive"
  | Pwl_dat -> "piecewise-linear recursive"
  | Dat -> "general recursive"

(* Tarjan's algorithm over the predicate graph. Predicate counts are
   small (tens), so the recursive formulation is fine. SCCs are emitted
   dependents-first; we reverse at the end so the result lists
   dependencies before the components that use them. *)
let strongly_connected_components preds succ =
  let index = Hashtbl.create 32 in
  let lowlink = Hashtbl.create 32 in
  let on_stack = Hashtbl.create 32 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strong p =
    Hashtbl.replace index p !counter;
    Hashtbl.replace lowlink p !counter;
    incr counter;
    stack := p :: !stack;
    Hashtbl.replace on_stack p ();
    List.iter
      (fun q ->
        match Hashtbl.find_opt index q with
        | None ->
          strong q;
          Hashtbl.replace lowlink p
            (min (Hashtbl.find lowlink p) (Hashtbl.find lowlink q))
        | Some qi ->
          if Hashtbl.mem on_stack q then
            Hashtbl.replace lowlink p (min (Hashtbl.find lowlink p) qi))
      (succ p);
    if Hashtbl.find lowlink p = Hashtbl.find index p then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | q :: rest ->
          stack := rest;
          Hashtbl.remove on_stack q;
          if Symbol.compare q p = 0 then q :: acc else pop (q :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun p -> if not (Hashtbl.mem index p) then strong p) preds;
  List.rev !sccs

let classify program =
  Metrics.incr m_classify;
  Util.Tracing.with_span "analysis.classify" (fun () ->
      let preds = Program.schema program in
      let edges = Program.predicate_edges program in
      let succ_tbl = Hashtbl.create 32 in
      List.iter
        (fun (src, dst) ->
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt succ_tbl src)
          in
          Hashtbl.replace succ_tbl src (dst :: existing))
        edges;
      let succ p = Option.value ~default:[] (Hashtbl.find_opt succ_tbl p) in
      let components = strongly_connected_components preds succ in
      let scc_of = Hashtbl.create 32 in
      List.iteri
        (fun i comp -> List.iter (fun p -> Hashtbl.replace scc_of p i) comp)
        components;
      let self_loop p = List.exists (fun q -> Symbol.compare p q = 0) (succ p) in
      let comp_recursive comp =
        match comp with
        | [ p ] -> self_loop p
        | _ -> true
      in
      (* Stratum of an SCC: 0 for purely extensional predicates, otherwise
         one more than the deepest SCC it depends on. The condensation is
         acyclic, so memoized recursion terminates. *)
      let components_arr = Array.of_list components in
      let strata_memo = Array.make (Array.length components_arr) (-1) in
      let rec stratum i =
        if strata_memo.(i) >= 0 then strata_memo.(i)
        else begin
          let comp = components_arr.(i) in
          let intensional =
            List.exists (fun p -> Program.is_idb program p) comp
          in
          let result =
            if not intensional then 0
            else
              let deepest = ref 0 in
              List.iter
                (fun p ->
                  List.iter
                    (fun rule ->
                      List.iter
                        (fun (a : Atom.t) ->
                          let j = Hashtbl.find scc_of a.Atom.pred in
                          if j <> i then deepest := max !deepest (stratum j))
                        (Rule.body rule))
                    (Program.rules_for program p))
                comp;
              !deepest + 1
          in
          strata_memo.(i) <- result;
          result
        end
      in
      let sccs =
        List.mapi
          (fun i comp ->
            { preds = comp; recursive = comp_recursive comp; stratum = stratum i })
          components
      in
      (* Dependencies before dependents: an SCC's stratum is strictly
         greater than that of every SCC it depends on, so sorting by
         stratum (stably, keeping Tarjan order within a level) is a
         topological order of the condensation. *)
      let sccs =
        List.stable_sort
          (fun (a : scc) (b : scc) -> Int.compare a.stratum b.stratum)
          sccs
      in
      let recursive = List.exists (fun (s : scc) -> s.recursive) sccs in
      let linear = Program.is_linear program in
      (* Piecewise-linear: every rule uses at most one body atom from its
         head's own SCC; such programs decompose into a tower of linear
         layers. *)
      let piecewise_linear =
        List.for_all
          (fun rule ->
            let head_scc = Hashtbl.find scc_of (Rule.head rule).Atom.pred in
            let in_own_scc =
              List.filter
                (fun (a : Atom.t) -> Hashtbl.find scc_of a.Atom.pred = head_scc)
                (Rule.body rule)
            in
            List.length in_own_scc <= 1)
          (Program.rules program)
      in
      let cls =
        if not recursive then Nrdat
        else if linear then Ldat
        else if piecewise_linear then Pwl_dat
        else Dat
      in
      {
        cls;
        linear;
        recursive;
        piecewise_linear;
        sccs;
        strata = List.fold_left (fun acc (s : scc) -> max acc s.stratum) 0 sccs;
        recursive_sccs =
          List.length (List.filter (fun (s : scc) -> s.recursive) sccs);
      })

let summary c =
  Printf.sprintf "%s (%s; %s; %d strat%s; %d recursive SCC%s)" (cls_name c.cls)
    (cls_describe c.cls)
    (if c.linear then "linear" else "non-linear")
    c.strata
    (if c.strata = 1 then "um" else "a")
    c.recursive_sccs
    (if c.recursive_sccs = 1 then "" else "s")

(* A witness cycle [p1 -> p2 -> ... -> p1] inside a recursive SCC, used
   by the WP201 informational diagnostic. *)
let cycle_witness program scc_preds =
  match scc_preds with
  | [] -> None
  | first :: _ ->
    let in_scc p =
      List.exists (fun q -> Symbol.compare p q = 0) scc_preds
    in
    let succ p =
      List.filter_map
        (fun (src, dst) ->
          if Symbol.compare src p = 0 && in_scc dst then Some dst else None)
        (Program.predicate_edges program)
    in
    if List.exists (fun q -> Symbol.compare q first = 0) (succ first) then
      Some [ first; first ]
    else begin
      (* BFS from the successors of [first] back to [first]. *)
      let parent = Hashtbl.create 8 in
      let queue = Queue.create () in
      List.iter
        (fun q ->
          if not (Hashtbl.mem parent q) then begin
            Hashtbl.replace parent q first;
            Queue.add q queue
          end)
        (succ first);
      let found = ref None in
      while !found = None && not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        List.iter
          (fun q ->
            if Symbol.compare q first = 0 && !found = None then
              found := Some p
            else if not (Hashtbl.mem parent q) then begin
              Hashtbl.replace parent q p;
              Queue.add q queue
            end)
          (succ p)
      done;
      match !found with
      | None -> None
      | Some last ->
        let rec build p acc =
          if Symbol.compare p first = 0 then first :: acc
          else build (Hashtbl.find parent p) (p :: acc)
        in
        Some (build last [ first ])
    end
