module Vec = Util.Vec
module Metrics = Util.Metrics
module SymMap = Map.Make (Int)

(* Same index vocabulary as the flat engine's relations ({!Flatrel}):
   these structural per-position indexes serve the backward joins of
   [Eval.derivations], so their build/probe traffic belongs in the same
   eval.index.* series (docs/OBSERVABILITY.md). *)
let m_index_builds = Metrics.counter "eval.index.builds"
let m_index_entries = Metrics.counter "eval.index.entries"
let m_index_probes = Metrics.counter "eval.index.probes"
let m_index_hits = Metrics.counter "eval.index.hits"

type pos_index = (Symbol.t, int Vec.t) Hashtbl.t

type store = {
  store_facts : Fact.t Vec.t;
  (* Lazily built: position -> (constant -> indexes into [store_facts]).
     Kept up to date by [add] once built. *)
  indexes : (int, pos_index) Hashtbl.t;
}

type t = {
  all : unit Fact.Table.t;
  mutable stores : store SymMap.t;
}

let create ?(size = 1024) () =
  { all = Fact.Table.create size; stores = SymMap.empty }

let store_of t p =
  match SymMap.find_opt p t.stores with
  | Some s -> s
  | None ->
    let s = { store_facts = Vec.create (); indexes = Hashtbl.create 4 } in
    t.stores <- SymMap.add p s t.stores;
    s

let index_insert idx c fact_id =
  let cell =
    match Hashtbl.find_opt idx c with
    | Some v -> v
    | None ->
      let v = Vec.create () in
      Hashtbl.add idx c v;
      v
  in
  Vec.push cell fact_id

let add t f =
  if Fact.Table.mem t.all f then false
  else begin
    Fact.Table.add t.all f ();
    let s = store_of t (Fact.pred f) in
    let fact_id = Vec.length s.store_facts in
    Vec.push s.store_facts f;
    Hashtbl.iter
      (fun pos idx -> index_insert idx (Fact.args f).(pos) fact_id)
      s.indexes;
    true
  end

(* Insertion without the membership pre-check: the flat engine's final
   materialization ([Engine]) walks rows its relations have already deduplicated, so
   re-hashing each fact just to learn it is fresh would double the cost
   of the per-fact tail. *)
let add_new t f =
  Fact.Table.add t.all f ();
  let s = store_of t (Fact.pred f) in
  let fact_id = Vec.length s.store_facts in
  Vec.push s.store_facts f;
  Hashtbl.iter
    (fun pos idx -> index_insert idx (Fact.args f).(pos) fact_id)
    s.indexes

let of_list l =
  let t = create () in
  List.iter (fun f -> ignore (add t f)) l;
  t

let of_set s =
  let t = create () in
  Fact.Set.iter (fun f -> ignore (add t f)) s;
  t

let mem t f = Fact.Table.mem t.all f
let size t = Fact.Table.length t.all

let preds t = List.map fst (SymMap.bindings t.stores) |> List.filter (fun p -> Vec.length (SymMap.find p t.stores).store_facts > 0)

let count_pred t p =
  match SymMap.find_opt p t.stores with
  | Some s -> Vec.length s.store_facts
  | None -> 0

let iter f t = SymMap.iter (fun _ s -> Vec.iter f s.store_facts) t.stores

let iter_pred t p f =
  match SymMap.find_opt p t.stores with
  | Some s -> Vec.iter f s.store_facts
  | None -> ()

let ensure_index s pos =
  match Hashtbl.find_opt s.indexes pos with
  | Some idx -> idx
  | None ->
    let idx : pos_index = Hashtbl.create 64 in
    Vec.iteri (fun i f -> index_insert idx (Fact.args f).(pos) i) s.store_facts;
    Hashtbl.add s.indexes pos idx;
    Metrics.incr m_index_builds;
    Metrics.add m_index_entries (Vec.length s.store_facts);
    idx

let estimate t p bound =
  match SymMap.find_opt p t.stores with
  | None -> 0
  | Some s -> (
    match bound with
    | [] -> Vec.length s.store_facts
    | _ ->
      List.fold_left
        (fun acc (pos, c) ->
          let idx = ensure_index s pos in
          let bucket =
            match Hashtbl.find_opt idx c with
            | Some ids -> Vec.length ids
            | None -> 0
          in
          min acc bucket)
        max_int bound)

let iter_matching t p bound f =
  match SymMap.find_opt p t.stores with
  | None -> ()
  | Some s -> begin
    match bound with
    | [] -> Vec.iter f s.store_facts
    | _ ->
      (* Scan the smallest index bucket among the bound positions and
         filter on the others. *)
      let best =
        List.fold_left
          (fun acc ((pos, c) as entry) ->
            let idx = ensure_index s pos in
            let size =
              match Hashtbl.find_opt idx c with
              | Some ids -> Vec.length ids
              | None -> 0
            in
            match acc with
            | Some (_, best_size) when best_size <= size -> acc
            | _ -> Some (entry, size))
          None bound
      in
      (match best with
      | None -> ()
      | Some ((pos0, c0), _) ->
        let idx = ensure_index s pos0 in
        Metrics.incr m_index_probes;
        (match Hashtbl.find_opt idx c0 with
        | None -> ()
        | Some ids ->
          Metrics.incr m_index_hits;
          let rest = List.filter (fun (pos, _) -> pos <> pos0) bound in
          let matches fact =
            List.for_all (fun (pos, c) -> Symbol.equal (Fact.args fact).(pos) c) rest
          in
          Vec.iter
            (fun i ->
              let fact = Vec.get s.store_facts i in
              if matches fact then f fact)
            ids))
  end

let to_list t =
  let acc = ref [] in
  iter (fun f -> acc := f :: !acc) t;
  !acc

let to_set t =
  let acc = ref Fact.Set.empty in
  iter (fun f -> acc := Fact.Set.add f !acc) t;
  !acc

let domain t =
  let seen = Hashtbl.create 256 in
  iter (fun f -> Array.iter (fun c -> Hashtbl.replace seen c ()) (Fact.args f)) t;
  List.sort Symbol.compare (Hashtbl.fold (fun c () acc -> c :: acc) seen [])

let copy t = of_list (to_list t)

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    Fact.pp ppf
    (List.sort Fact.compare (to_list t))
