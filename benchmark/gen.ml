(* Seeded generators of the benchmark's inputs, as [.dl] text.

   The pipeline only ever sees the text these functions return. The
   shapes are chosen so that the cost of one request varies little
   from one seed to another: every request addresses one small unit
   (a community, a family of functions) drawn from many units of the
   same size, so medians over a run are steady while the seed still
   changes every edge, statement and tuple. *)

module Rng = Util.Rng

let tc_rules = "tc(X,Y) :- edge(X,Y).\ntc(X,Z) :- tc(X,Y), edge(Y,Z).\n"

type clustered = {
  text : string;
  communities : int;
  size : int;
  edges : (int * int) list;  (** every [edge(vU,vV)] fact, as [(u, v)] *)
}

let node i = Printf.sprintf "v%d" i

(* Facebook-like social circles: [communities] groups of exactly [size]
   nodes, each with a directed ring (so the group is strongly
   connected) plus every other ordered pair with probability 1/2, and
   two one-way bridges between random members into group c from group
   (c-1)/2. Bridges never lead back, so the downward closure of a tuple
   whose two nodes share a group stays inside that group: dense and
   cyclic, the regime where the acyclicity encoding dominates. The
   groups form the same binary tree on every seed, so the model's size
   (which reachability across bridges decides) does not depend on it. *)
let clustered_digraph ~seed ~communities ~size =
  let rng = Rng.create seed in
  let edges = ref [] in
  for c = 0 to communities - 1 do
    let base = c * size in
    for i = 0 to size - 1 do
      for j = 0 to size - 1 do
        if i <> j && (j = (i + 1) mod size || Rng.bool rng) then
          edges := (base + i, base + j) :: !edges
      done
    done;
    if c > 0 then
      for _ = 1 to 2 do
        let parent = (c - 1) / 2 in
        edges :=
          ((parent * size) + Rng.int rng size, base + Rng.int rng size) :: !edges
      done
  done;
  let edges = List.rev !edges in
  let buf = Buffer.create (List.length edges * 20) in
  Buffer.add_string buf tc_rules;
  List.iter (fun (u, v) -> Printf.bprintf buf "edge(v%d,v%d).\n" u v) edges;
  { text = Buffer.contents buf; communities; size; edges }

(* A pair of distinct nodes of one community: the answer tuple tc(a,b)
   of one request. *)
let intra_pair rng g =
  let c = Rng.int rng g.communities in
  let a = Rng.int rng g.size in
  let b = (a + 1 + Rng.int rng (g.size - 1)) mod g.size in
  ((c * g.size) + a, (c * g.size) + b)

(* A random simple path from [a] to [b] (by randomized depth-first
   search), as its edge list; [None] if [b] is unreachable. *)
let simple_path rng ~succ a b =
  let visited = Hashtbl.create 16 in
  let rec dfs u =
    if u = b then Some []
    else begin
      Hashtbl.replace visited u ();
      let next = Array.of_list (List.filter (fun v -> not (Hashtbl.mem visited v)) (succ u)) in
      Rng.shuffle rng next;
      let rec try_each i =
        if i >= Array.length next then None
        else
          match dfs next.(i) with
          | Some path -> Some ((u, next.(i)) :: path)
          | None -> try_each (i + 1)
      in
      try_each 0
    end
  in
  dfs a

(* Andersen-style points-to program in independent families of
   [family] functions. A function is a chain of [chain] copies with
   skip edges (series-parallel diamonds, hence several derivations per
   points-to fact); its entry copies from a variable of its parent
   function in the family, or takes the address of a family object.
   Loads and stores are rare and stay inside the family, so one
   tuple's closure is bounded by its family whatever the seed. About
   110 statements per family. *)
let pointer_program ~seed ~families =
  let rng = Rng.create seed in
  let family = 8 and chain = 10 in
  let buf = Buffer.create (families * 2600) in
  Buffer.add_string buf
    "pt(Y,X) :- addr(Y,X).\n\
     pt(Y,X) :- assign(Y,Z), pt(Z,X).\n\
     pt(Y,W) :- load(Y,X), pt(X,Z), pt(Z,W).\n\
     pt(W,Z) :- store(Y,X), pt(Y,W), pt(X,Z).\n";
  let stmt pred a b = Printf.bprintf buf "%s(%s,%s).\n" pred a b in
  for f = 0 to families - 1 do
    let var k i = Printf.sprintf "x%d_%d_%d" f k i in
    let obj () = Printf.sprintf "o%d_%d" f (Rng.int rng 3) in
    for k = 0 to family - 1 do
      if k = 0 then stmt "addr" (var 0 0) (obj ())
      else begin
        let parent = Rng.int rng k in
        stmt "assign" (var k 0) (var parent (Rng.int rng chain));
        if Rng.float rng 1.0 < 0.3 then
          stmt "assign" (var k 0) (var parent (Rng.int rng chain))
      end;
      if Rng.float rng 1.0 < 0.2 then stmt "addr" (var k 0) (obj ());
      for i = 1 to chain - 1 do
        stmt "assign" (var k i) (var k (i - 1));
        if i >= 2 && Rng.float rng 1.0 < 0.35 then
          stmt "assign" (var k i) (var k (i - 2))
      done;
      if Rng.float rng 1.0 < 0.12 then begin
        let i = 1 + Rng.int rng (chain - 1) in
        stmt "load" (var k i) (var k (i - 1))
      end;
      if Rng.float rng 1.0 < 0.08 then begin
        let i = 1 + Rng.int rng (chain - 1) in
        stmt "store" (var k i) (var k (i - 1))
      end
    done
  done;
  Buffer.contents buf
