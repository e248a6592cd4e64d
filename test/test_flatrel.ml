(* Direct tests of the column indexes of {!Datalog.Flatrel}. A relation
   is driven through a mix of indexed inserts ([add]), round-style
   batches ([append] + [reindex_range]), index rebuilds ([drop_index] +
   [ensure_index]) and [copy]s (same rows, same ids, no indexes), next
   to a list model of its rows. After every step each live index must agree with the
   model: for every constant, present or absent, [iter_bucket] yields
   exactly the ascending ids of the rows holding it and [bucket_length]
   their count. *)

module D = Datalog
module F = Datalog.Flatrel

type op =
  | Add of int array
  | Batch of int array list  (* append each, then reindex the range *)
  | Rebuild of int           (* drop_index then ensure_index *)
  | Drop of int
  | Ensure of int
  | Copy

let pp_row r = "(" ^ String.concat "," (Array.to_list (Array.map string_of_int r)) ^ ")"

let pp_op = function
  | Add r -> "add " ^ pp_row r
  | Batch rs -> "batch [" ^ String.concat " " (List.map pp_row rs) ^ "]"
  | Rebuild c -> Printf.sprintf "rebuild %d" c
  | Drop c -> Printf.sprintf "drop %d" c
  | Ensure c -> Printf.sprintf "ensure %d" c
  | Copy -> "copy"

(* The relation under test, its rows in id order, and which columns
   carry a live index. *)
type state = {
  mutable rel : F.t;
  rows : int array Util.Vec.t;
  seen : (int array, unit) Hashtbl.t;
  live : bool array;
}

let fail fmt = Printf.ksprintf failwith fmt

(* Every live index against the model. [absent] lists constants no row
   may hold. *)
let check st absent =
  let n = Util.Vec.length st.rows in
  if F.length st.rel <> n then fail "length %d, model %d" (F.length st.rel) n;
  Array.iteri
    (fun col live ->
      if live then begin
        let expected = Hashtbl.create 64 in
        for row = n - 1 downto 0 do
          let c = (Util.Vec.get st.rows row).(col) in
          let ids = Option.value (Hashtbl.find_opt expected c) ~default:[] in
          Hashtbl.replace expected c (row :: ids)
        done;
        Hashtbl.iter
          (fun c ids ->
            let h = F.bucket st.rel col c in
            let got = ref [] in
            F.iter_bucket st.rel col h (fun row -> got := row :: !got);
            if List.rev !got <> ids then
              fail "column %d, constant %d: rows [%s], model [%s]" col c
                (String.concat ";" (List.rev_map string_of_int !got))
                (String.concat ";" (List.map string_of_int ids));
            if F.bucket_length st.rel col h <> List.length ids then
              fail "column %d, constant %d: bucket_length %d, model %d" col c
                (F.bucket_length st.rel col h) (List.length ids))
          expected;
        List.iter
          (fun c ->
            let h = F.bucket st.rel col c in
            if Hashtbl.mem expected c then fail "constant %d is not absent" c;
            if h >= 0 then fail "column %d, absent %d: handle %d" col c h;
            if F.bucket_length st.rel col h <> 0 then
              fail "column %d, absent %d: nonzero length" col c;
            F.iter_bucket st.rel col h (fun row ->
                fail "column %d, absent %d: yields row %d" col c row))
          absent
      end)
    st.live

let insert st r add =
  let fresh = add st.rel r 0 in
  if fresh = Hashtbl.mem st.seen r then fail "insert %s: returned %b" (pp_row r) fresh;
  if fresh then begin
    Hashtbl.replace st.seen (Array.copy r) ();
    Util.Vec.push st.rows (Array.copy r)
  end

let apply st = function
  | Add r -> insert st r F.add
  | Batch rs ->
    let lo = F.length st.rel in
    List.iter (fun r -> insert st r F.append) rs;
    F.reindex_range st.rel lo (F.length st.rel)
  | Rebuild c ->
    F.drop_index st.rel c;
    F.ensure_index st.rel c;
    st.live.(c) <- true
  | Drop c ->
    F.drop_index st.rel c;
    st.live.(c) <- false
  | Ensure c ->
    F.ensure_index st.rel c;
    st.live.(c) <- true
  | Copy ->
    st.rel <- F.copy st.rel;
    Array.fill st.live 0 (Array.length st.live) false

(* Runs [ops], checking after each step with [every] and once more at
   the end with every column indexed. *)
let run ~arity ~every ~absent ops =
  let st =
    {
      rel = F.create ~arity;
      rows = Util.Vec.create ();
      seen = Hashtbl.create 64;
      live = Array.make arity false;
    }
  in
  List.iter
    (fun op ->
      apply st op;
      if every then check st absent)
    ops;
  for c = 0 to arity - 1 do
    apply st (Ensure c)
  done;
  check st absent

(* Column [c] draws constants from [0, ranges.(c)): range 1 puts every
   row on one constant, a wide range makes nearly every constant
   distinct. Absent probes use negative constants. *)
let gen_case =
  QCheck.Gen.(
    let* arity = int_range 1 3 in
    let* ranges = array_repeat arity (oneofl [ 1; 2; 5; 40; 1 lsl 40 ]) in
    let gen_row =
      map Array.of_list
        (flatten_l (List.map (fun r -> int_bound (r - 1)) (Array.to_list ranges)))
    in
    let gen_col = int_bound (arity - 1) in
    let gen_op =
      frequency
        [
          (5, map (fun r -> Add r) gen_row);
          (3, map (fun rs -> Batch rs) (list_size (int_bound 30) gen_row));
          (1, map (fun c -> Rebuild c) gen_col);
          (1, map (fun c -> Drop c) gen_col);
          (2, map (fun c -> Ensure c) gen_col);
          (1, return Copy);
        ]
    in
    let* ops = list_size (int_range 1 40) gen_op in
    return (arity, ops))

let arb_case =
  QCheck.make gen_case ~print:(fun (arity, ops) ->
      Printf.sprintf "arity %d: %s" arity (String.concat "; " (List.map pp_op ops)))

let prop_index_matches_model =
  QCheck.Test.make ~count:300 ~name:"column index buckets = model rows" arb_case
    (fun (arity, ops) ->
      run ~arity ~every:true ~absent:[ -1; -2; min_int ] ops;
      true)

(* Column 0 holds 2^16 + 4,464 distinct constants (the slot table grows
   from 16 slots past 2^17), column 1 one constant in every row, column
   2 a few hundred; every index is built early and maintained through
   each insertion path. *)
let test_large_columns () =
  let row i = [| (i * 7) + 3; 42; i mod 257 |] in
  let rows lo hi = List.init (hi - lo) (fun k -> row (lo + k)) in
  let ops =
    [ Ensure 0; Ensure 1; Ensure 2 ]
    @ List.map (fun r -> Add r) (rows 0 20_000)
    @ [ Batch (rows 20_000 50_000); Add (row 0); Copy; Ensure 0; Ensure 1 ]
    @ List.map (fun r -> Add r) (rows 50_000 60_000)
    @ [ Rebuild 1; Ensure 2; Batch (rows 60_000 70_000) ]
  in
  run ~arity:3 ~every:false ~absent:[ -1; 257; 1_000_003 ] ops

(* The row table against a [Hashtbl] model: up to 2,000 rows, most of
   them drawn from a narrow range so duplicates are common, inserted
   through both write paths. The table starts at 32 slots and doubles
   whenever an insertion takes it past 3/4 full, so a draw grows it up
   to six times. [length], [mem] and [find] must agree with the model
   after every insertion, and [find] must give each row the id it got
   when first inserted. *)
let gen_rows =
  QCheck.Gen.(
    let* arity = int_range 1 3 in
    let* range = oneofl [ 3; 12; 1 lsl 40 ] in
    let* n = int_range 1 2_000 in
    let* rows = list_repeat n (array_repeat arity (int_bound (range - 1))) in
    return (arity, rows))

let prop_row_table_matches_model =
  QCheck.Test.make ~count:200 ~name:"row table length/mem/find = Hashtbl model"
    (QCheck.make gen_rows ~print:(fun (arity, rows) ->
         Printf.sprintf "arity %d: %s" arity (String.concat " " (List.map pp_row rows))))
    (fun (arity, rows) ->
      let rel = F.create ~arity in
      let ids : (int array, int) Hashtbl.t = Hashtbl.create 64 in
      let absent = Array.make arity (-1) in
      List.iteri
        (fun i r ->
          let fresh = (if i mod 2 = 0 then F.add else F.append) rel r 0 in
          if fresh = Hashtbl.mem ids r then fail "insert %s: returned %b" (pp_row r) fresh;
          if fresh then Hashtbl.replace ids (Array.copy r) (Hashtbl.length ids);
          if F.length rel <> Hashtbl.length ids then
            fail "length %d, model %d" (F.length rel) (Hashtbl.length ids);
          if F.find rel r 0 <> Hashtbl.find ids r then
            fail "find %s: %d, model %d" (pp_row r) (F.find rel r 0) (Hashtbl.find ids r);
          if F.find rel absent 0 <> -1 || F.mem rel absent 0 then fail "absent row found")
        rows;
      Hashtbl.iter
        (fun r id ->
          if not (F.mem rel r 0) then fail "mem %s: false" (pp_row r);
          if F.find rel r 0 <> id then
            fail "find %s: %d, model %d" (pp_row r) (F.find rel r 0) id;
          for col = 0 to arity - 1 do
            if F.get rel id col <> r.(col) then fail "row %d, column %d differs" id col
          done)
        ids;
      true)

(* [Database.iter_matching] and [estimate] on patterns that bind every
   column: each answers exactly the one row or none, builds no column
   index ([eval.index.builds] stays put), and agrees with filtering the
   answers of the same pattern with one column left free. *)
let gen_db_case =
  QCheck.Gen.(
    let* arity = int_range 1 3 in
    let gen_row = array_repeat arity (int_bound 4) in
    let* rows = list_size (int_range 0 60) gen_row in
    let* probes = list_size (int_range 1 30) gen_row in
    return (arity, rows, probes))

let prop_fully_bound_probes =
  QCheck.Test.make ~count:300 ~name:"fully bound iter_matching/estimate = row table"
    (QCheck.make gen_db_case ~print:(fun (arity, rows, probes) ->
         Printf.sprintf "arity %d: rows %s; probes %s" arity
           (String.concat " " (List.map pp_row rows))
           (String.concat " " (List.map pp_row probes))))
    (fun (arity, rows, probes) ->
      let p = D.Symbol.intern "fb" in
      let sym i = D.Symbol.intern (Printf.sprintf "fb%d" i) in
      let fact r = D.Fact.make p (Array.map sym r) in
      let db = D.Database.of_list (List.map fact rows) in
      let matching bound =
        let acc = ref [] in
        D.Database.iter_matching db p ~arity bound (fun f -> acc := f :: !acc);
        List.rev !acc
      in
      let full r = List.init arity (fun i -> (i, sym r.(i))) in
      Util.Metrics.set_enabled true;
      Fun.protect ~finally:(fun () -> Util.Metrics.set_enabled false) @@ fun () ->
      let builds0 = Util.Metrics.get_counter "eval.index.builds" in
      let answers =
        List.map
          (fun r -> (r, matching (full r), D.Database.estimate db p ~arity (full r)))
          probes
      in
      let builds1 = Util.Metrics.get_counter "eval.index.builds" in
      if builds1 <> builds0 then fail "fully bound probes built %d index(es)" (builds1 - builds0);
      List.iter
        (fun (r, got, est) ->
          let present = D.Database.mem db (fact r) in
          let expected = if present then [ fact r ] else [] in
          if not (List.equal D.Fact.equal got expected) then
            fail "probe %s: %d answers, present %b" (pp_row r) (List.length got) present;
          if est <> List.length expected then fail "estimate %s: %d" (pp_row r) est;
          (* Free the last column and filter on it. *)
          let partial = List.filter (fun (i, _) -> i <> arity - 1) (full r) in
          let filtered =
            List.filter
              (fun f -> (D.Fact.args f).(arity - 1) = sym r.(arity - 1))
              (matching partial)
          in
          if not (List.equal D.Fact.equal got filtered) then
            fail "probe %s: %d answers, filtered partial match %d" (pp_row r)
              (List.length got) (List.length filtered))
        answers;
      true)

let suite =
  ( "flatrel",
    [ Alcotest.test_case "large columns" `Quick test_large_columns ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_index_matches_model; prop_row_table_matches_model; prop_fully_bound_probes ] )
