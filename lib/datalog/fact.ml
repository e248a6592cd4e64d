type t = {
  pred : Symbol.t;
  args : Symbol.t array;
}

let make pred args = { pred; args }

let of_strings pred args =
  { pred = Symbol.intern pred;
    args = Array.of_list (List.map Symbol.intern args) }

let pred f = f.pred
let args f = f.args
let arity f = Array.length f.args

let equal f1 f2 =
  Symbol.equal f1.pred f2.pred
  && Array.length f1.args = Array.length f2.args
  && begin
    let rec loop i =
      i >= Array.length f1.args
      || (Symbol.equal f1.args.(i) f2.args.(i) && loop (i + 1))
    in
    loop 0
  end

let compare f1 f2 =
  let c = Symbol.compare f1.pred f2.pred in
  if c <> 0 then c
  else begin
    let n1 = Array.length f1.args and n2 = Array.length f2.args in
    let c = Int.compare n1 n2 in
    if c <> 0 then c
    else begin
      let rec loop i =
        if i >= n1 then 0
        else
          let c = Symbol.compare f1.args.(i) f2.args.(i) in
          if c <> 0 then c else loop (i + 1)
      in
      loop 0
    end
  end

let hash f =
  (* FNV-style mix over interned ids. A product's low bits depend only
     on its factors' low bits, and [Table]'s power-of-two bucket arrays
     keep the low bits, so the high half is folded down, as in
     [Flatrel]'s row hash. *)
  let h = ref (f.pred * 0x01000193 + 0x811c9dc5) in
  for i = 0 to Array.length f.args - 1 do
    h := (!h lxor f.args.(i)) * 0x01000193
  done;
  (!h lxor (!h lsr 32)) land max_int

let pp ppf f =
  if Array.length f.args = 0 then Symbol.pp ppf f.pred
  else
    Format.fprintf ppf "%a(%a)" Symbol.pp f.pred
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Symbol.pp)
      (Array.to_list f.args)

let to_string f = Format.asprintf "%a" pp f

module Ordered = struct
  type nonrec t = t
  let compare = compare
end

module Hashed = struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ordered)
module Map = Map.Make (Ordered)
module Table = Hashtbl.Make (Hashed)

let pp_set ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp)
    (Set.elements s)
