open Datalog

module Set_of_sets = Set.Make (struct
  type t = Fact.Set.t
  let compare = Fact.Set.compare
end)

let why program db fact = Materialize.why program db fact

(* Cartesian product of lists of alternatives. *)
let rec product = function
  | [] -> [ [] ]
  | alternatives :: rest ->
    let tails = product rest in
    List.concat_map (fun x -> List.map (fun tail -> x :: tail) tails) alternatives

let trees_up_to_depth program db fact ~depth =
  let model = Eval.seminaive program db in
  let memo : (Fact.t * int, Proof_tree.t list) Hashtbl.t = Hashtbl.create 256 in
  let rec trees fact depth =
    match Hashtbl.find_opt memo (fact, depth) with
    | Some ts -> ts
    | None ->
      let leaves = if Database.mem db fact then [ Proof_tree.Leaf fact ] else [] in
      let inner =
        if depth = 0 then []
        else
          Eval.derivations program model fact
          |> List.concat_map (fun (rule, body) ->
                 product (List.map (fun b -> trees b (depth - 1)) body)
                 |> List.map (fun children ->
                        Proof_tree.Node { fact; rule; children }))
      in
      let result = leaves @ inner in
      Hashtbl.add memo (fact, depth) result;
      result
  in
  trees fact depth

let count_trees program db fact ~depth =
  let model = Eval.seminaive program db in
  let cap = max_int / 2 in
  let sat_add a b = if a > cap - b then cap else a + b in
  let sat_mul a b = if b <> 0 && a > cap / b then cap else a * b in
  let memo : (Fact.t * int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec count fact depth =
    match Hashtbl.find_opt memo (fact, depth) with
    | Some n -> n
    | None ->
      let leaves = if Database.mem db fact then 1 else 0 in
      let inner =
        if depth = 0 then 0
        else
          Eval.derivations program model fact
          |> List.fold_left
               (fun acc (_, body) ->
                 sat_add acc
                   (List.fold_left
                      (fun prod b -> sat_mul prod (count b (depth - 1)))
                      1 body))
               0
      in
      let result = sat_add leaves inner in
      Hashtbl.add memo (fact, depth) result;
      result
  in
  count fact depth

let non_recursive_trees program db fact =
  let model = Eval.seminaive program db in
  let rec trees fact path =
    if Fact.Set.mem fact path then []
    else begin
      let path = Fact.Set.add fact path in
      let leaves = if Database.mem db fact then [ Proof_tree.Leaf fact ] else [] in
      let inner =
        Eval.derivations program model fact
        |> List.concat_map (fun (rule, body) ->
               product (List.map (fun b -> trees b path) body)
               |> List.map (fun children -> Proof_tree.Node { fact; rule; children }))
      in
      leaves @ inner
    end
  in
  trees fact Fact.Set.empty

let supports_of_trees trees =
  List.fold_left
    (fun acc tree -> Set_of_sets.add (Proof_tree.support tree) acc)
    Set_of_sets.empty trees
  |> Set_of_sets.elements

let why_nr program db fact = supports_of_trees (non_recursive_trees program db fact)

let min_depth program db fact =
  let ranks = Fact.Table.create 256 in
  let _model = Eval.seminaive ~ranks program db in
  Fact.Table.find_opt ranks fact

let why_md program db fact =
  match min_depth program db fact with
  | None -> []
  | Some d ->
    trees_up_to_depth program db fact ~depth:d
    |> List.filter (fun tree -> Proof_tree.depth tree = d)
    |> supports_of_trees

let why_un program db fact =
  let closure = Closure.build program db fact in
  if not (Closure.derivable closure) then []
  else if Program.is_edb (Closure.program closure) (Fact.pred fact) then
    [ Fact.Set.singleton fact ]
  else begin
    let program = Closure.program closure in
    let results = ref Set_of_sets.empty in
    (* A candidate compressed DAG is a choice of one hyperedge target set
       per reachable intensional fact; it must be acyclic
       (Proposition 41). *)
    let acyclic assigned =
      (* DFS cycle detection over the chosen edges. *)
      let state : (Fact.t, int) Hashtbl.t = Hashtbl.create 64 in
      let rec visit f =
        match Hashtbl.find_opt state f with
        | Some 1 -> false (* back edge *)
        | Some _ -> true
        | None ->
          Hashtbl.replace state f 1;
          let children =
            match Fact.Map.find_opt f assigned with
            | Some targets -> targets
            | None -> []
          in
          let ok = List.for_all visit children in
          Hashtbl.replace state f 2;
          ok
      in
      visit fact
    in
    let support_of assigned =
      let acc = ref Fact.Set.empty in
      let seen : unit Fact.Table.t = Fact.Table.create 64 in
      let rec visit f =
        if not (Fact.Table.mem seen f) then begin
          Fact.Table.add seen f ();
          if Program.is_edb program (Fact.pred f) then acc := Fact.Set.add f !acc
          else
            List.iter visit
              (match Fact.Map.find_opt f assigned with
              | Some targets -> targets
              | None -> [])
        end
      in
      visit fact;
      !acc
    in
    let rec go assigned pending =
      match pending with
      | [] -> if acyclic assigned then results := Set_of_sets.add (support_of assigned) !results
      | f :: rest ->
        if Fact.Map.mem f assigned then go assigned rest
        else
          Array.iter
            (fun (edge : Closure.hyperedge) ->
              let targets = edge.Closure.targets in
              let fresh =
                List.filter
                  (fun t ->
                    Program.is_idb program (Fact.pred t)
                    && not (Fact.Map.mem t assigned))
                  targets
              in
              go (Fact.Map.add f targets assigned) (fresh @ rest))
            (Closure.hyperedges_of closure f)
    in
    go Fact.Map.empty [ fact ];
    Set_of_sets.elements !results
  end

let some_tree program db fact =
  match min_depth program db fact with
  | None -> None
  | Some d -> (
    match trees_up_to_depth program db fact ~depth:d with
    | [] -> None
    | tree :: _ -> Some tree)
