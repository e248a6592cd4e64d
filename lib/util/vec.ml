type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get" else Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set" else Array.unsafe_set v.data i x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop"
  else begin
    v.len <- v.len - 1;
    Array.unsafe_get v.data v.len
  end

let last v = if v.len = 0 then invalid_arg "Vec.last" else v.data.(v.len - 1)

let clear v = v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink" else v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do f (Array.unsafe_get v.data i) done

let iteri f v =
  for i = 0 to v.len - 1 do f i (Array.unsafe_get v.data i) done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do acc := f !acc (Array.unsafe_get v.data i) done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let to_array v = Array.sub v.data 0 v.len

let of_array a = { data = Array.copy a; len = Array.length a }

let of_list l = of_array (Array.of_list l)

let copy v = { data = Array.copy v.data; len = v.len }

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.len

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = Array.unsafe_get v.data i in
    if p x then begin
      Array.unsafe_set v.data !j x;
      incr j
    end
  done;
  v.len <- !j
