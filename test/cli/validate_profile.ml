(* Validates a `whyprov --profile=FILE` / `whyprov profile` dump: the
   file must parse as JSON, carry the whyprov.profile/3 schema, record
   at least one run, and its rules must satisfy the profile's internal
   arithmetic — per-atom "out" counts summing to the rule's "tuples",
   "duplicates" = "emitted" - "derived" (docs/OBSERVABILITY.md,
   "Rule-level profiles"). *)

module Json = Util.Metrics.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let num key obj =
  match Json.member key obj with
  | Some (Json.Num n) -> n
  | _ -> fail "missing numeric field %S" key

let list key obj =
  match Json.member key obj with
  | Some (Json.List l) -> l
  | _ -> fail "missing list field %S" key

let () =
  let path = Sys.argv.(1) in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json =
    try Json.parse src
    with Json.Parse_error msg -> fail "%s: invalid JSON: %s" path msg
  in
  (match Json.member "schema" json with
  | Some (Json.Str "whyprov.profile/3") -> ()
  | _ -> fail "%s: missing or wrong schema version" path);
  if num "runs" json < 1.0 then fail "%s: no runs recorded" path;
  let rules = list "rules" json in
  if rules = [] then fail "%s: no rules recorded" path;
  List.iter
    (fun r ->
      let id = int_of_float (num "id" r) in
      let atoms_out =
        List.fold_left (fun acc a -> acc +. num "out" a) 0.0 (list "atoms" r)
      in
      if atoms_out <> num "tuples" r then
        fail "%s: rule %d: atom counts do not sum to tuples" path id;
      if num "duplicates" r <> num "emitted" r -. num "derived" r then
        fail "%s: rule %d: duplicates <> emitted - derived" path id)
    rules
