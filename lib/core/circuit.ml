open Datalog

type gate =
  | Input of Fact.t
  | Zero
  | One
  | Plus of int list   (* gate ids *)
  | Times of int list

type t = {
  gates : gate array;
  root : int;
  depth_used : int;
}

let of_closure ?depth closure =
  let program = Closure.program closure in
  let depth =
    match depth with
    | Some d -> max 0 d
    | None -> Closure.num_nodes closure
  in
  let gates = Util.Vec.create () in
  let add gate =
    let id = Util.Vec.length gates in
    Util.Vec.push gates gate;
    id
  in
  let zero = add Zero in
  let _one = add One in
  (* Hash-consing per (fact, level): level i = value of the fact after i
     rounds of the immediate-consequence operator. *)
  let memo : (Fact.t * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* Dedup structurally identical Plus/Times gates. *)
  let structural : (gate, int) Hashtbl.t = Hashtbl.create 256 in
  let intern gate =
    match gate with
    | Plus [] -> zero
    | Times [] -> _one
    | Plus [ g ] | Times [ g ] -> g
    | _ -> (
      match Hashtbl.find_opt structural gate with
      | Some id -> id
      | None ->
        let id = add gate in
        Hashtbl.add structural gate id;
        id)
  in
  let rec build fact level =
    match Hashtbl.find_opt memo (fact, level) with
    | Some id -> id
    | None ->
      let id =
        if Program.is_edb program (Fact.pred fact) then intern (Input fact)
        else if level = 0 then zero
        else begin
          let summands =
            Array.map
              (fun (edge : Closure.hyperedge) ->
                intern
                  (Times
                     (List.sort Int.compare
                        (List.map (fun b -> build b (level - 1)) edge.Closure.body))))
              (Closure.hyperedges_of closure fact)
            |> Array.to_list
          in
          intern (Plus (List.sort_uniq Int.compare summands))
        end
      in
      Hashtbl.add memo (fact, level) id;
      id
  in
  (* The Input gate for equal facts must be shared across levels. *)
  let root = build (Closure.root closure) depth in
  { gates = Util.Vec.to_array gates; root; depth_used = depth }

let size t = Array.length t.gates
let depth_used t = t.depth_used

module Eval (S : Semiring.S) = struct
  let eval ?(annotate = fun _ -> S.one) t =
    let values = Array.make (Array.length t.gates) None in
    let rec value id =
      match values.(id) with
      | Some v -> v
      | None ->
        let v =
          match t.gates.(id) with
          | Input fact -> annotate fact
          | Zero -> S.zero
          | One -> S.one
          | Plus gs -> List.fold_left (fun acc g -> S.plus acc (value g)) S.zero gs
          | Times gs -> List.fold_left (fun acc g -> S.times acc (value g)) S.one gs
        in
        values.(id) <- Some v;
        v
    in
    value t.root
end

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph circuit {\n  rankdir=BT;\n";
  Array.iteri
    (fun id gate ->
      let label, shape =
        match gate with
        | Input f -> (Fact.to_string f, "box")
        | Zero -> ("0", "plaintext")
        | One -> ("1", "plaintext")
        | Plus _ -> ("+", "circle")
        | Times _ -> ("×", "circle")
      in
      Buffer.add_string buf
        (Printf.sprintf "  g%d [label=\"%s\", shape=%s];\n" id
           (String.escaped label) shape);
      match gate with
      | Plus gs | Times gs ->
        List.iter
          (fun g -> Buffer.add_string buf (Printf.sprintf "  g%d -> g%d;\n" g id))
          gs
      | _ -> ())
    t.gates;
  Buffer.add_string buf (Printf.sprintf "  root -> g%d [style=dotted];\n" t.root);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
