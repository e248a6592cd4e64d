(* Answer checks that share nothing with the SAT pipeline. whybench
   runs them on every member it receives, outside the timed regions. *)

open Datalog

(* why_UN for transitive closure, by the shape of the member alone:
   a set S of edge facts is in why_UN(tc(a,b)) iff the edges of S, each
   used exactly once, form a walk from [a] to [b] whose nodes after [a]
   are pairwise distinct. Such a walk is an unambiguous proof tree:
   its intermediate facts tc(a,v) are distinct because the nodes v
   are. The search backtracks only where the walk may pass through [a]
   a second time, so it is linear in |S| on every real member. *)
let walk_member ~a ~b (member : Fact.Set.t) =
  let edges =
    Fact.Set.fold
      (fun f acc ->
        match Fact.args f with
        | [| u; v |] when Symbol.name (Fact.pred f) = "edge" -> (u, v) :: acc
        | _ -> acc)
      member []
  in
  let total = List.length edges in
  if total = 0 || total <> Fact.Set.cardinal member then false
  else begin
    let used = Hashtbl.create total and after = Hashtbl.create total in
    let rec extend u steps =
      (steps = total && Symbol.equal u b)
      || List.exists
           (fun ((x, y) as e) ->
             Symbol.equal x u
             && (not (Hashtbl.mem used e))
             && (not (Hashtbl.mem after y))
             && begin
               Hashtbl.replace used e ();
               Hashtbl.replace after y ();
               let found = extend y (steps + 1) in
               Hashtbl.remove used e;
               Hashtbl.remove after y;
               found
             end)
           edges
    in
    extend a 0
  end

(* A member reported with a witness (the [explain --witness] path):
   the DAG must be a valid compressed proof DAG of [goal] over [db]
   whose support is exactly [member]. *)
let check_witness program db goal member (dag : Provenance.Proof_dag.t) =
  let module G = Provenance.Proof_dag in
  match G.check program db dag with
  | Error msg -> Error ("invalid proof DAG: " ^ msg)
  | Ok () ->
    if not (G.is_compressed dag) then Error "proof DAG is not compressed"
    else if not (Fact.equal (G.fact dag) goal) then Error "proof DAG proves another fact"
    else if not (Fact.Set.equal (G.support dag) member) then
      Error "proof DAG support differs from the member"
    else Ok ()

(* [member] is the support of an unambiguous proof tree of [goal]:
   decided by the exhaustive compressed-DAG enumeration of
   Proposition 41 over the member's own facts, which is enough since a
   proof tree only uses facts of its support. Small members only. *)
let unambiguous_support program goal member =
  List.exists (Fact.Set.equal member)
    (Provenance.Naive.why_un program (Database.of_set member) goal)

(* True iff the members of one tuple are pairwise distinct. *)
let distinct members =
  let sorted = List.sort_uniq Fact.Set.compare members in
  List.length sorted = List.length members
