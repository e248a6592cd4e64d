open Datalog

module Set_of_sets = Set.Make (struct
  type t = Fact.Set.t
  let compare = Fact.Set.compare
end)

exception Budget_exceeded

let why_of_closure ?(max_members = max_int) closure =
  let root = Closure.root closure in
  if not (Closure.derivable closure) then []
  else begin
    let program = Closure.program closure in
    let supports : Set_of_sets.t ref Fact.Table.t = Fact.Table.create 256 in
    let total = ref 0 in
    let family_of fact =
      match Fact.Table.find_opt supports fact with
      | Some r -> r
      | None ->
        let r = ref Set_of_sets.empty in
        Fact.Table.add supports fact r;
        r
    in
    (* Database facts support themselves. *)
    Array.iter
      (fun fact ->
        let r = family_of fact in
        if Program.is_edb program (Fact.pred fact) then begin
          r := Set_of_sets.singleton (Fact.Set.singleton fact);
          incr total
        end)
      (Closure.nodes closure);
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun fact ->
          Array.iter
            (fun (edge : Closure.hyperedge) ->
              (* Cartesian combination of the support families of the
                 body facts. The full body (with multiplicity) matters:
                 two occurrences of the same fact may be proved by
                 different sub-supports in a single (ambiguous) proof
                 tree, cf. Example 4 of the paper. *)
              let r = family_of fact in
              let rec combine acc body =
                match body with
                | [] ->
                  if not (Set_of_sets.mem acc !r) then begin
                    r := Set_of_sets.add acc !r;
                    incr total;
                    if !total > max_members then raise Budget_exceeded;
                    changed := true
                  end
                | b :: rest ->
                  Set_of_sets.iter
                    (fun s -> combine (Fact.Set.union acc s) rest)
                    !(family_of b)
              in
              combine Fact.Set.empty edge.Closure.body)
            (Closure.hyperedges_of closure fact))
        (Closure.nodes closure)
    done;
    Set_of_sets.elements !(family_of root)
  end

let why ?max_members program db fact =
  why_of_closure ?max_members (Closure.build program db fact)

let why_full ?(max_members = max_int) ?deadline program db fact =
  let ticks = ref 0 in
  let check_deadline () =
    incr ticks;
    if !ticks land 1023 = 0 then
      match deadline with
      | Some d when Unix.gettimeofday () > d -> raise Budget_exceeded
      | _ -> ()
  in
  (* Full-model materialization: compute the support family of EVERY
     model fact, with no goal-directed restriction — how a forward
     provenance-materializing engine (the paper's Figure 5 baseline)
     proceeds. *)
  let model = Eval.seminaive program db in
  let supports : Set_of_sets.t ref Fact.Table.t = Fact.Table.create 1024 in
  let total = ref 0 in
  let family_of f =
    match Fact.Table.find_opt supports f with
    | Some r -> r
    | None ->
      let r = ref Set_of_sets.empty in
      Fact.Table.add supports f r;
      r
  in
  Database.iter
    (fun f ->
      let r = family_of f in
      r := Set_of_sets.singleton (Fact.Set.singleton f);
      incr total)
    db;
  let idb_facts = ref [] in
  Database.iter
    (fun f -> if not (Database.mem db f) then idb_facts := f :: !idb_facts)
    model;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        List.iter
          (fun (_, body) ->
            let r = family_of f in
            let rec combine acc = function
              | [] ->
                check_deadline ();
                if not (Set_of_sets.mem acc !r) then begin
                  r := Set_of_sets.add acc !r;
                  incr total;
                  if !total > max_members then raise Budget_exceeded;
                  changed := true
                end
              | b :: rest ->
                Set_of_sets.iter
                  (fun s -> combine (Fact.Set.union acc s) rest)
                  !(family_of b)
            in
            combine Fact.Set.empty body)
          (Eval.derivations program model f))
      !idb_facts
  done;
  Set_of_sets.elements !(family_of fact)
