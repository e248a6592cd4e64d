type t = int

module Metrics = Util.Metrics

let m_symbols = Metrics.counter "eval.intern.symbols"
let m_lookups = Metrics.counter "eval.intern.lookups"
let m_hits = Metrics.counter "eval.intern.hits"

let table : (string, int) Hashtbl.t = Hashtbl.create 4096
let names : string Util.Vec.t = Util.Vec.create ()

let intern s =
  Metrics.incr m_lookups;
  match Hashtbl.find_opt table s with
  | Some id ->
    Metrics.incr m_hits;
    id
  | None ->
    let id = Util.Vec.length names in
    Hashtbl.add table s id;
    Util.Vec.push names s;
    Metrics.incr m_symbols;
    id

let name id =
  if id < 0 || id >= Util.Vec.length names then
    invalid_arg (Printf.sprintf "Symbol.name: unknown symbol %d" id)
  else Util.Vec.get names id

let to_string = name

let fresh hint =
  let rec try_suffix i =
    let candidate = Printf.sprintf "%s#%d" hint i in
    if Hashtbl.mem table candidate then try_suffix (i + 1)
    else intern candidate
  in
  try_suffix (Util.Vec.length names)

let known s = Hashtbl.mem table s
let count () = Util.Vec.length names
let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp ppf id = Format.pp_print_string ppf (name id)
