(* Bench regression gate: compare a freshly run set of stats rows
   against a committed baseline (BENCH_*.json) and fail on regressions.

   Both sides are whyprov.bench/1 JSONL (the envelope of
   EXPERIMENTS.md). Rows are matched by (kind, ordinal within kind) —
   experiments emit rows in a deterministic order, so the nth "engine"
   row of the baseline is the nth "engine" row of the re-run. Fields
   are then compared one by one, driven by the baseline row:

   - strings and booleans (workloads, statuses, the engine
     "identical" verdicts, model-size invariants encoded as strings)
     must match exactly;
   - numeric fields ending in "_s" are wall times: the fresh value may
     not exceed [tol] x baseline, unless both sides are below the noise
     floor (5 ms) where ratios mean nothing;
   - "speedup", "*_per_s", "*peak*" and "elapsed_s" are derived or
     machine-dependent and are skipped, as are the "cpus" and "ocaml"
     machine stamps (a differing "cpus" is reported as a note);
   - every other numeric field (facts, model sizes, rounds, member
     counts…) is deterministic and must match exactly.

   Missing rows, extra-kind mismatches and missing fields are
   regressions too: a baseline is a contract on the shape of the run,
   not only on its speed. *)

module Json = Util.Metrics.Json

let noise_floor_s = 0.005

(* Fields never compared: run bookkeeping, machine stamps and per-stage
   registry dumps ("metrics" snapshots change schema as instrumentation
   grows). *)
let skip_fields = [ "metrics"; "elapsed_s"; "rev"; "schema"; "cpus"; "ocaml" ]

let skipped_numeric key =
  let has_suffix s suf =
    let ls = String.length s and lf = String.length suf in
    ls >= lf && String.sub s (ls - lf) lf = suf
  in
  let contains s sub =
    let ls = String.length s and lb = String.length sub in
    let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
    go 0
  in
  key = "speedup" || has_suffix key "_per_s" || contains key "peak"

let is_time_field key =
  let l = String.length key in
  l >= 2 && String.sub key (l - 2) 2 = "_s"

let load_jsonl path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then rows := Json.parse line :: !rows
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let str_field key row =
  match Json.member key row with Some (Json.Str s) -> Some s | _ -> None

let kind_of row = match str_field "kind" row with Some k -> k | None -> "?"

let row_label i row =
  let w = match str_field "workload" row with Some w -> w | None -> "-" in
  Printf.sprintf "%s[%d] (workload %s)" (kind_of row) i w

(* Compare one (baseline, fresh) row pair; returns the regressions as
   human-readable strings. *)
let compare_rows ~tol label base fresh =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match base with
  | Json.Obj fields ->
    List.iter
      (fun (key, bval) ->
        if not (List.mem key skip_fields) then
          match (bval, Json.member key fresh) with
          | _, None -> problem "%s: field %S missing from re-run" label key
          | Json.Num b, Some (Json.Num f) ->
            if skipped_numeric key then ()
            else if is_time_field key then begin
              if f > (b *. tol) +. noise_floor_s then
                problem "%s: %s regressed %.4fs -> %.4fs (> %.2fx)" label key
                  b f tol
            end
            else if b <> f then
              problem "%s: %s changed %g -> %g (exact-match field)" label key
                b f
          | Json.Str b, Some (Json.Str f) ->
            if b <> f then problem "%s: %s changed %S -> %S" label key b f
          | Json.Bool b, Some (Json.Bool f) ->
            if b <> f then
              problem "%s: %s changed %b -> %b" label key b f
          | _, Some f ->
            if not (Json.equal bval f) then
              problem "%s: %s changed type or value" label key)
      fields
  | _ -> problem "%s: baseline row is not an object" label);
  List.rev !problems

(* Match rows by ordinal within kind: partition both sides, preserving
   emission order, then zip. *)
let by_kind rows =
  let tbl : (string, Json.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun row ->
      let k = kind_of row in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := row :: !l
      | None ->
        order := k :: !order;
        Hashtbl.add tbl k (ref [ row ]))
    rows;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let cpus_of rows =
  List.find_map
    (fun row ->
      match Json.member "cpus" row with
      | Some (Json.Num n) -> Some (int_of_float n)
      | _ -> None)
    rows

let check ~tol ~baseline rows =
  let base_rows = load_jsonl baseline in
  (* Wall times from a machine with another CPU count are still gated,
     but the reader should know the comparison is across machines. *)
  (match (cpus_of base_rows, cpus_of rows) with
  | Some b, Some f when b <> f ->
    Printf.printf "note: baseline %s was recorded with %d cpu(s), this run has %d\n"
      baseline b f
  | _ -> ());
  let problems = ref [] in
  let add ps = problems := !problems @ ps in
  let fresh_kinds = by_kind rows in
  List.iter
    (fun (kind, brows) ->
      let frows =
        match List.assoc_opt kind fresh_kinds with Some l -> l | None -> []
      in
      let nb = List.length brows and nf = List.length frows in
      if nf < nb then
        add
          [
            Printf.sprintf
              "kind %s: baseline has %d row(s), re-run produced %d" kind nb nf;
          ];
      List.iteri
        (fun i b ->
          match List.nth_opt frows i with
          | None -> ()
          | Some f -> add (compare_rows ~tol (row_label i b) b f))
        brows)
    (by_kind base_rows);
  match !problems with
  | [] ->
    Printf.printf "bench --check: OK — %d row(s) within tolerance %.2fx of %s\n"
      (List.length base_rows) tol baseline;
    0
  | ps ->
    Printf.printf "bench --check: %d regression(s) against %s:\n"
      (List.length ps) baseline;
    List.iter (fun p -> Printf.printf "  %s\n" p) ps;
    1
