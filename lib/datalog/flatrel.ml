module Metrics = Util.Metrics

let m_index_builds = Metrics.counter "eval.index.builds"
let m_index_entries = Metrics.counter "eval.index.entries"

type index = (int, int Util.Vec.t) Hashtbl.t

type t = {
  arity : int;
  mutable data : int array;   (* row-major; row r occupies [r*arity, ..) *)
  mutable nrows : int;
  mutable table : int array;  (* open addressing; 0 = empty, else row id + 1 *)
  mutable mask : int;         (* Array.length table - 1, a power of two *)
  indexes : index option array;
}

let create ~arity =
  if arity < 0 then invalid_arg "Flatrel.create: negative arity";
  {
    arity;
    data = (if arity = 0 then [||] else Array.make (16 * arity) 0);
    nrows = 0;
    table = Array.make 32 0;
    mask = 31;
    indexes = Array.make (max arity 1) None;
  }

let arity t = t.arity
let length t = t.nrows

(* FNV-style hash of a row, mirroring [Fact.hash] minus the predicate
   seed (a relation holds a single predicate). Unsafe accesses in this
   and the other per-row primitives below are guarded by the
   representation invariant: rows < nrows, columns < arity, and callers
   pass buffers of at least [arity] cells past [off]. *)
let hash_at t buf off =
  let h = ref 0x811c9dc5 in
  for i = off to off + t.arity - 1 do
    h := (!h lxor Array.unsafe_get buf i) * 0x01000193
  done;
  !h land max_int

let row_equal t row buf off =
  let base = row * t.arity in
  let data = t.data in
  let rec loop i =
    i >= t.arity
    || Array.unsafe_get data (base + i) = Array.unsafe_get buf (off + i)
       && loop (i + 1)
  in
  loop 0

(* Linear probing. Returns the row id, or -1 with [!slot_out] set to the
   insertion slot. *)
let lookup t buf off slot_out =
  let h = hash_at t buf off in
  let table = t.table in
  let rec scan slot =
    let v = Array.unsafe_get table slot in
    if v = 0 then begin
      slot_out := slot;
      -1
    end
    else if row_equal t (v - 1) buf off then v - 1
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
      if t.table.(slot) = 0 then t.table.(slot) <- row + 1
      else place ((slot + 1) land t.mask)
    in
    place (h land t.mask)
  done

let grow_data t =
  let needed = (t.nrows + 1) * t.arity in
  if needed > Array.length t.data then begin
    let data = Array.make (max needed (2 * Array.length t.data)) 0 in
    Array.blit t.data 0 data 0 (t.nrows * t.arity);
    t.data <- data
  end

(* A new bucket starts at one slot: most constants of a model column
   occur in few rows, and [Vec]'s default first growth (16 slots) would
   make the index several times larger than the rows it covers. *)
let index_insert idx c row =
  match Hashtbl.find_opt idx c with
  | Some v -> Util.Vec.push v row
  | None -> Hashtbl.add idx c (Util.Vec.make 1 row)

(* Insertion without index maintenance: the engine appends derived
   rows with this during a round and replays the appended range into
   the live indexes at the round boundary ([reindex_range]), so the
   indexes a round probes never change under it. *)
let append t buf off =
  let slot = ref 0 in
  if lookup t buf off slot >= 0 then false
  else begin
    let row = t.nrows in
    if t.arity > 0 then begin
      grow_data t;
      Array.blit buf off t.data (row * t.arity) t.arity
    end;
    t.table.(!slot) <- row + 1;
    t.nrows <- row + 1;
    (* Keep the load factor of the open-addressing table under 1/2. *)
    if 2 * (t.nrows + 1) > t.mask then rehash t;
    true
  end

let add t buf off =
  let row = t.nrows in
  if append t buf off then begin
    for col = 0 to t.arity - 1 do
      match t.indexes.(col) with
      | Some idx -> index_insert idx buf.(off + col) row
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
    let idx : index = Hashtbl.create 64 in
    for row = 0 to t.nrows - 1 do
      index_insert idx (get t row col) row
    done;
    t.indexes.(col) <- Some idx;
    Metrics.incr m_index_builds;
    Metrics.add m_index_entries t.nrows

let reindex_range t lo hi =
  for col = 0 to t.arity - 1 do
    match t.indexes.(col) with
    | Some idx ->
      for row = lo to hi - 1 do
        index_insert idx (get t row col) row
      done;
      Metrics.add m_index_entries (hi - lo)
    | None -> ()
  done

let drop_index t col = t.indexes.(col) <- None

let index_exn t col =
  match t.indexes.(col) with
  | Some idx -> idx
  | None -> invalid_arg "Flatrel: column index not built"

let bucket t col v = Hashtbl.find_opt (index_exn t col) v

let mem t buf off = lookup t buf off (ref 0) >= 0

let fact t ~pred row = Fact.make pred (Array.sub t.data (row * t.arity) t.arity)

(* Reversing the rows renames row [r] to [n - 1 - r]; the open-addressing
   slots depend only on row contents, so the table is remapped slot by
   slot instead of rehashed. Column indexes are not copied. *)
let copy t =
  let n = t.nrows and k = t.arity in
  let data = Array.make (n * k) 0 in
  for row = 0 to n - 1 do
    Array.blit t.data (row * k) data ((n - 1 - row) * k) k
  done;
  let table = Array.map (fun v -> if v = 0 then 0 else n + 1 - v) t.table in
  { t with data; table; indexes = Array.make (max k 1) None }
