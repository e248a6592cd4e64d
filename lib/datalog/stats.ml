module SymMap = Map.Make (Int)

type pred = { rows : float; distinct : float array }

type t = { mutable preds : pred SymMap.t }

let create () = { preds = SymMap.empty }

let set t p stats = t.preds <- SymMap.add p stats t.preds

let find t p = SymMap.find_opt p t.preds

let rows t p = Option.map (fun s -> s.rows) (find t p)

let fold f t acc = SymMap.fold f t.preds acc

let of_database db =
  let t = create () in
  List.iter
    (fun p ->
      let n = Database.count_pred db p in
      let arity = ref 0 in
      (* Arity of a stored predicate is the arity of its first fact:
         the analyzer rejects a predicate used with two arities (WP003). *)
      (try
         Database.iter_pred db p (fun f ->
             arity := Fact.arity f;
             raise Exit)
       with Exit -> ());
      let seen = Array.init !arity (fun _ -> Hashtbl.create 64) in
      Database.iter_pred db p (fun f ->
          let args = Fact.args f in
          Array.iteri (fun i tbl -> Hashtbl.replace tbl args.(i) ()) seen);
      set t p
        {
          rows = float_of_int n;
          distinct = Array.map (fun tbl -> float_of_int (Hashtbl.length tbl)) seen;
        })
    (Database.preds db);
  t

let copy t = { preds = t.preds }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  SymMap.iter
    (fun p s ->
      Format.fprintf ppf "%s: rows<=%.6g, distinct<=(%s)@," (Symbol.name p)
        s.rows
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%.6g") s.distinct))))
    t.preds;
  Format.fprintf ppf "@]"
