module Metrics = Util.Metrics

let m_index_builds = Metrics.counter "eval.index.builds"
let m_index_entries = Metrics.counter "eval.index.entries"

(* A column index. [slots] is an open-addressing table over the
   column's distinct constants; a slot is 0 when empty, else it packs
   the constant's last row + 1 (low [last_bits] bits) and its row count
   (the bits above). The constant itself is not stored: it is the cell
   at that last row. [next] chains the rows of each constant in a
   circle, ascending, with the last row linking back to the first, so
   appending a row is O(1) and iteration starts at [next.(last)]. *)
type index = {
  mutable slots : int array;
  mutable smask : int;        (* Array.length slots - 1, a power of two *)
  mutable keys : int;         (* occupied slots *)
  mutable next : int array;   (* indexed by row; cells of unindexed rows unused *)
}

let last_bits = 31
let last_mask = (1 lsl last_bits) - 1

type t = {
  arity : int;
  mutable data : int array;   (* row-major; row r occupies [r*arity, ..) *)
  mutable nrows : int;
  mutable table : int array;  (* open addressing; 0 = empty, else [slot_of] *)
  mutable mask : int;         (* Array.length table - 1, a power of two *)
  indexes : index option array;
}

(* The row table for [rows] rows: the smallest power of two that holds
   them at a load of at most 3/4, the size doubling would reach. *)
let table_size rows =
  let rec up s = if 4 * rows > 3 * s then up (2 * s) else s in
  up 1

let create ~arity ~rows =
  if arity < 0 then invalid_arg "Flatrel.create: negative arity";
  if rows < 0 then invalid_arg "Flatrel.create: negative row count";
  let size = table_size rows in
  {
    arity;
    data = Array.make (rows * arity) 0;
    nrows = 0;
    table = Array.make size 0;
    mask = size - 1;
    indexes = Array.make (max arity 1) None;
  }

let arity t = t.arity
let length t = t.nrows

(* FNV-style hash of a row, mirroring [Fact.hash] minus the predicate
   seed (a relation holds a single predicate). A product's low bits
   depend only on its factors' low bits, so the high half is folded
   down before the slot mask keeps the low bits: without it, linear
   probing at a 3/4 load took 7.3 probes per lookup on the cold-start
   model, against 3.5 with it. Unsafe accesses in this and the other
   per-row primitives below are guarded by the representation
   invariant: rows < nrows, columns < arity, and callers pass buffers
   of at least [arity] cells past [off]. *)
let hash_at t buf off =
  let h = ref 0x811c9dc5 in
  for i = off to off + t.arity - 1 do
    h := (!h lxor Array.unsafe_get buf i) * 0x01000193
  done;
  (!h lxor (!h lsr 32)) land max_int

let row_equal t row buf off =
  let base = row * t.arity in
  let data = t.data in
  let rec loop i =
    i >= t.arity
    || Array.unsafe_get data (base + i) = Array.unsafe_get buf (off + i)
       && loop (i + 1)
  in
  loop 0

(* A row-table slot packs row id + 1 (low [last_bits] bits) under a
   tag, the row hash's bits from 32 up: a probe reads a row's data only
   when the tags match, so the longer runs of a 3/4 load are walked in
   the table alone. *)
let slot_of h row = ((h lsr 32) lsl last_bits) lor (row + 1)

(* Linear probing for the row hashing to [h]. Returns the row id, or -1
   with [!slot_out] set to the insertion slot. *)
let lookup t h buf off slot_out =
  let tag = h lsr 32 in
  let table = t.table in
  let rec scan slot =
    let v = Array.unsafe_get table slot in
    if v = 0 then begin
      slot_out := slot;
      -1
    end
    else if v lsr last_bits = tag && row_equal t ((v land last_mask) - 1) buf off then
      (v land last_mask) - 1
    else scan ((slot + 1) land t.mask)
  in
  scan (h land t.mask)

let rehash t =
  let size = 2 * (t.mask + 1) in
  t.table <- Array.make size 0;
  t.mask <- size - 1;
  for row = 0 to t.nrows - 1 do
    let h = hash_at t t.data (row * t.arity) in
    let rec place slot =
      if t.table.(slot) = 0 then t.table.(slot) <- slot_of h row
      else place ((slot + 1) land t.mask)
    in
    place (h land t.mask)
  done

(* Doubles from any capacity, including the exact one a sized
   [create] or a [trim] leaves. *)
let grow_data t =
  let needed = (t.nrows + 1) * t.arity in
  if needed > Array.length t.data then begin
    let data = Array.make (max needed (2 * Array.length t.data)) 0 in
    Array.blit t.data 0 data 0 (t.nrows * t.arity);
    t.data <- data
  end

(* Multiplicative hash of one constant; the xor-shift folds the high
   product bits into the low ones the slot mask keeps. *)
let hash_const c =
  let h = c * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* The slot holding constant [c] of column [col], or [lnot] of the
   empty slot where it would go (negative). Loops over refs rather than
   a local recursive closure so a probe allocates nothing. *)
let find_slot t idx col c =
  let slots = idx.slots and mask = idx.smask and data = t.data and k = t.arity in
  let s = ref (hash_const c land mask) in
  let v = ref (Array.unsafe_get slots !s) in
  while
    !v <> 0 && Array.unsafe_get data ((((!v land last_mask) - 1) * k) + col) <> c
  do
    s := (!s + 1) land mask;
    v := Array.unsafe_get slots !s
  done;
  if !v = 0 then lnot !s else !s

let grow_slots t idx col =
  let old = idx.slots in
  let size = 2 * Array.length old in
  idx.slots <- Array.make size 0;
  idx.smask <- size - 1;
  Array.iter
    (fun v ->
      if v <> 0 then begin
        let c = Array.unsafe_get t.data ((((v land last_mask) - 1) * t.arity) + col) in
        idx.slots.(lnot (find_slot t idx col c)) <- v
      end)
    old

(* Room in [next] for rows below [hi]. Row ids must fit the slot's
   [last_bits]-bit field. *)
let reserve_next idx hi =
  let len = Array.length idx.next in
  if hi > len then begin
    if hi >= last_mask then invalid_arg "Flatrel: too many rows for a column index";
    let next = Array.make (max hi (2 * len)) 0 in
    Array.blit idx.next 0 next 0 len;
    idx.next <- next
  end

(* Links row [row] (already in [data], above every indexed row) into
   its constant's chain. [next] must have room for it. *)
let index_insert t idx col row =
  let s = find_slot t idx col (Array.unsafe_get t.data ((row * t.arity) + col)) in
  let next = idx.next in
  if s >= 0 then begin
    let v = idx.slots.(s) in
    let last = (v land last_mask) - 1 in
    next.(row) <- next.(last);
    next.(last) <- row;
    idx.slots.(s) <- (((v lsr last_bits) + 1) lsl last_bits) lor (row + 1)
  end
  else begin
    next.(row) <- row;
    idx.slots.(lnot s) <- (1 lsl last_bits) lor (row + 1);
    idx.keys <- idx.keys + 1;
    if 2 * idx.keys > idx.smask then grow_slots t idx col
  end

(* Insertion without index maintenance: the engine appends derived
   rows with this during a round and replays the appended range into
   the live indexes at the round boundary ([reindex_range]), so the
   indexes a round probes never change under it. *)
let append t buf off =
  let slot = ref 0 in
  let h = hash_at t buf off in
  if lookup t h buf off slot >= 0 then false
  else begin
    let row = t.nrows in
    if row >= last_mask then invalid_arg "Flatrel: too many rows";
    if t.arity > 0 then begin
      grow_data t;
      Array.blit buf off t.data (row * t.arity) t.arity
    end;
    t.table.(!slot) <- slot_of h row;
    t.nrows <- row + 1;
    (* Keep the load factor of the open-addressing table at most 3/4. *)
    if 4 * t.nrows > 3 * (t.mask + 1) then rehash t;
    true
  end

let add t buf off =
  let row = t.nrows in
  if append t buf off then begin
    for col = 0 to t.arity - 1 do
      match t.indexes.(col) with
      | Some idx ->
        reserve_next idx (row + 1);
        index_insert t idx col row
      | None -> ()
    done;
    true
  end
  else false

let get t row col = Array.unsafe_get t.data ((row * t.arity) + col)

let ensure_index t col =
  match t.indexes.(col) with
  | Some _ -> ()
  | None ->
    let idx = { slots = Array.make 16 0; smask = 15; keys = 0; next = [||] } in
    reserve_next idx t.nrows;
    for row = 0 to t.nrows - 1 do
      index_insert t idx col row
    done;
    t.indexes.(col) <- Some idx;
    Metrics.incr m_index_builds;
    Metrics.add m_index_entries t.nrows

let reindex_range t lo hi =
  for col = 0 to t.arity - 1 do
    match t.indexes.(col) with
    | Some idx ->
      reserve_next idx hi;
      for row = lo to hi - 1 do
        index_insert t idx col row
      done;
      Metrics.add m_index_entries (hi - lo)
    | None -> ()
  done

let drop_index t col = t.indexes.(col) <- None

let index_exn t col =
  match t.indexes.(col) with
  | Some idx -> idx
  | None -> invalid_arg "Flatrel: column index not built"

let bucket t col v = find_slot t (index_exn t col) col v

let bucket_length t col h =
  if h < 0 then 0 else (index_exn t col).slots.(h) lsr last_bits

let iter_bucket t col h f =
  if h >= 0 then begin
    let idx = index_exn t col in
    let last = (idx.slots.(h) land last_mask) - 1 in
    let next = idx.next in
    let r = ref (Array.unsafe_get next last) in
    while !r <> last do
      f !r;
      r := Array.unsafe_get next !r
    done;
    f last
  end

let find t buf off = lookup t (hash_at t buf off) buf off (ref 0)
let mem t buf off = find t buf off >= 0

let fact t ~pred row = Fact.make pred (Array.sub t.data (row * t.arity) t.arity)

(* Only arrays with room past the last row are copied: a relation
   already at its size is left as it is. *)
let trim t =
  let used = t.nrows * t.arity in
  if Array.length t.data > used then t.data <- Array.sub t.data 0 used;
  Array.iter
    (function
      | Some idx when Array.length idx.next > t.nrows ->
        idx.next <- Array.sub idx.next 0 t.nrows
      | _ -> ())
    t.indexes

let capacity t = Array.length t.data
let index_capacity t col = Array.length (index_exn t col).next

(* Rows keep their ids, so the row table is copied as is. Column
   indexes are not copied. *)
let copy t =
  {
    t with
    data = Array.sub t.data 0 (t.nrows * t.arity);
    table = Array.copy t.table;
    indexes = Array.make (max t.arity 1) None;
  }
