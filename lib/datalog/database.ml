module Metrics = Util.Metrics

(* The same probe counters as the flat engine's join runtime: the
   backward joins of [Eval.derivations] probe the very column indexes
   the fixpoint built, so their traffic belongs in the same eval.index.*
   series (docs/OBSERVABILITY.md). Index builds tick inside
   [Flatrel.ensure_index]; a fully bound pattern probes the row table
   instead and counts as one probe. *)
let m_index_probes = Metrics.counter "eval.index.probes"
let m_index_hits = Metrics.counter "eval.index.hits"

module Key = struct
  type t = Symbol.t * int

  let compare (p, a) (q, b) =
    let c = Symbol.compare p q in
    if c <> 0 then c else Int.compare a b
end

module KeyMap = Map.Make (Key)

type t = { mutable rels : Flatrel.t KeyMap.t }

let create () = { rels = KeyMap.empty }

let find t p arity = KeyMap.find_opt (p, arity) t.rels

let relation t p ~arity =
  match find t p arity with
  | Some rel -> rel
  | None ->
    let rel = Flatrel.create ~arity in
    t.rels <- KeyMap.add (p, arity) rel t.rels;
    rel

let add t f = Flatrel.add (relation t (Fact.pred f) ~arity:(Fact.arity f)) (Fact.args f) 0

let of_list l =
  let t = create () in
  List.iter (fun f -> ignore (add t f)) l;
  t

let of_set s =
  let t = create () in
  Fact.Set.iter (fun f -> ignore (add t f)) s;
  t

let mem t f =
  match find t (Fact.pred f) (Fact.arity f) with
  | Some rel -> Flatrel.mem rel (Fact.args f) 0
  | None -> false

let size t = KeyMap.fold (fun _ rel acc -> acc + Flatrel.length rel) t.rels 0

let count_pred t p =
  KeyMap.fold
    (fun (q, _) rel acc -> if Symbol.equal p q then acc + Flatrel.length rel else acc)
    t.rels 0

let preds t =
  KeyMap.fold
    (fun (p, _) rel acc ->
      match acc with
      | q :: _ when Symbol.equal p q -> acc
      | _ -> if Flatrel.length rel > 0 then p :: acc else acc)
    t.rels []
  |> List.rev

let iter_rel f pred rel =
  for row = 0 to Flatrel.length rel - 1 do
    f (Flatrel.fact rel ~pred row)
  done

let iter f t = KeyMap.iter (fun (pred, _) rel -> iter_rel f pred rel) t.rels

let iter_pred t p f =
  KeyMap.iter (fun (q, _) rel -> if Symbol.equal p q then iter_rel f q rel) t.rels

(* The column-[pos] bucket handle of [c], building the column index on
   first use; negative when no row holds [c] there. *)
let bucket rel (pos, c) =
  Flatrel.ensure_index rel pos;
  Flatrel.bucket rel pos c

(* The row a pattern spells out when it binds every column of [rel]
   (then, with exactly [arity] entries, its positions are distinct),
   else [None]. Symbols are non-negative, so -1 marks a free column. *)
let full_row rel bound =
  let k = Flatrel.arity rel in
  if k = 0 || List.compare_length_with bound k <> 0 then None
  else begin
    let row = Array.make k (-1) in
    List.iter (fun (pos, c) -> row.(pos) <- c) bound;
    if Array.mem (-1) row then None else Some row
  end

let estimate t p ~arity bound =
  match find t p arity with
  | None -> 0
  | Some rel -> (
    match (bound, full_row rel bound) with
    | [], _ -> Flatrel.length rel
    | _, Some row -> if Flatrel.find rel row 0 >= 0 then 1 else 0
    | _, None ->
      List.fold_left
        (fun acc ((pos, _) as b) -> min acc (Flatrel.bucket_length rel pos (bucket rel b)))
        max_int bound)

let iter_matching t p ~arity bound f =
  match find t p arity with
  | None -> ()
  | Some rel -> (
    match (bound, full_row rel bound) with
    | [], _ -> iter_rel f p rel
    | _, Some row ->
      (* Every column bound: one row-table probe, no column index. *)
      Metrics.incr m_index_probes;
      let r = Flatrel.find rel row 0 in
      if r >= 0 then begin
        Metrics.incr m_index_hits;
        f (Flatrel.fact rel ~pred:p r)
      end
    | _, None ->
      (* Scan the smallest index bucket among the bound positions and
         filter on the others; each bound column is looked up once. *)
      let pos0, h0, n0 =
        List.fold_left
          (fun ((_, _, best_n) as acc) ((pos, _) as b) ->
            let h = bucket rel b in
            let n = Flatrel.bucket_length rel pos h in
            if n < best_n then (pos, h, n) else acc)
          (-1, -1, max_int) bound
      in
      Metrics.incr m_index_probes;
      if n0 > 0 then begin
        Metrics.incr m_index_hits;
        let rest = List.filter (fun (pos, _) -> pos <> pos0) bound in
        Flatrel.iter_bucket rel pos0 h0 (fun row ->
            if List.for_all (fun (pos, c) -> Flatrel.get rel row pos = c) rest then
              f (Flatrel.fact rel ~pred:p row))
      end)

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
  KeyMap.iter
    (fun _ rel ->
      for row = 0 to Flatrel.length rel - 1 do
        for col = 0 to Flatrel.arity rel - 1 do
          Hashtbl.replace seen (Flatrel.get rel row col) ()
        done
      done)
    t.rels;
  List.sort Symbol.compare (Hashtbl.fold (fun c () acc -> c :: acc) seen [])

let copy t = { rels = KeyMap.map Flatrel.copy t.rels }

let extend t ~writable =
  List.fold_left
    (fun acc (p, arity) ->
      let rel =
        match find t p arity with
        | Some rel -> Flatrel.copy rel
        | None -> Flatrel.create ~arity
      in
      { rels = KeyMap.add (p, arity) rel acc.rels })
    { rels = t.rels } writable

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    Fact.pp ppf
    (List.sort Fact.compare (to_list t))
