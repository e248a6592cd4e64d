type t = int

module Metrics = Util.Metrics

let m_symbols = Metrics.counter "eval.intern.symbols"
let m_lookups = Metrics.counter "eval.intern.lookups"
let m_hits = Metrics.counter "eval.intern.hits"

let names : string Util.Vec.t = Util.Vec.create ()

(* Open addressing with linear probing over a power-of-two slot array,
   at most two thirds full. A slot is [0] when empty, else the symbol's
   [id + 1] in the low 31 bits under 31 bits of its name's hash, so a
   probe compares bytes only when the hash bits match. *)
let slots = ref (Array.make 8192 0)

let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

(* FNV-1a over the bytes, folded to 31 bits. *)
let hash_sub s off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  let h = !h in
  (h lxor (h lsr 31)) land id_mask

let equal_sub name s off len =
  String.length name = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get name !i = String.unsafe_get s (off + !i) do
    incr i
  done;
  !i = len

(* The slot holding [s.[off .. off+len-1]], whose hash is [h], or the
   empty slot where it would go. *)
let find_slot s off len h =
  let slots = !slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while
    let v = Array.unsafe_get slots !i in
    v <> 0
    && not (v lsr id_bits = h && equal_sub (Util.Vec.get names ((v land id_mask) - 1)) s off len)
  do
    i := (!i + 1) land mask
  done;
  !i

let grow () =
  let old = !slots in
  let mask = (2 * Array.length old) - 1 in
  let slots' = Array.make (mask + 1) 0 in
  Array.iter
    (fun v ->
      if v <> 0 then begin
        let j = ref ((v lsr id_bits) land mask) in
        while slots'.(!j) <> 0 do
          j := (!j + 1) land mask
        done;
        slots'.(!j) <- v
      end)
    old;
  slots := slots'

let intern_sub s off len =
  Metrics.incr m_lookups;
  let h = hash_sub s off len in
  let i = find_slot s off len h in
  let v = Array.unsafe_get !slots i in
  if v <> 0 then begin
    Metrics.incr m_hits;
    (v land id_mask) - 1
  end
  else begin
    let id = Util.Vec.length names in
    Util.Vec.push names (if off = 0 && len = String.length s then s else String.sub s off len);
    !slots.(i) <- (h lsl id_bits) lor (id + 1);
    Metrics.incr m_symbols;
    if 3 * (id + 1) > 2 * Array.length !slots then grow ();
    id
  end

let intern s = intern_sub s 0 (String.length s)

let name id =
  if id < 0 || id >= Util.Vec.length names then
    invalid_arg (Printf.sprintf "Symbol.name: unknown symbol %d" id)
  else Util.Vec.get names id

let to_string = name

let known s =
  let len = String.length s in
  !slots.(find_slot s 0 len (hash_sub s 0 len)) <> 0

let fresh hint =
  let rec try_suffix i =
    let candidate = Printf.sprintf "%s#%d" hint i in
    if known candidate then try_suffix (i + 1) else intern candidate
  in
  try_suffix (Util.Vec.length names)

let count () = Util.Vec.length names
let equal = Int.equal
let compare = Int.compare
let pp ppf id = Format.pp_print_string ppf (name id)
