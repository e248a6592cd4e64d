open Datalog

let candidate_ok db candidate = Fact.Set.for_all (Database.mem db) candidate

let why program db goal candidate =
  candidate_ok db candidate
  &&
  (* A proof tree with support D' lives entirely inside D', so decide
     over the candidate database. *)
  let db' = Database.of_set candidate in
  List.exists (Fact.Set.equal candidate) (Materialize.why program db' goal)

let why_un program db goal candidate =
  candidate_ok db candidate
  &&
  let db' = Database.of_set candidate in
  Enumerate.member (Enumerate.create program db' goal) candidate

let why_nr program db goal candidate =
  candidate_ok db candidate
  &&
  let db' = Database.of_set candidate in
  List.exists (Fact.Set.equal candidate) (Naive.why_nr program db' goal)

let why_md program db goal candidate =
  candidate_ok db candidate
  &&
  (* The depth threshold is relative to the full database D; trees are
     then searched inside the candidate. *)
  match Naive.min_depth program db goal with
  | None -> false
  | Some d ->
    let db' = Database.of_set candidate in
    Naive.trees_up_to_depth program db' goal ~depth:d
    |> List.exists (fun tree ->
           Proof_tree.depth tree = d
           && Fact.Set.equal (Proof_tree.support tree) candidate)
