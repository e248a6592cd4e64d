(* Validates a `whyprov --profile=FILE` / `whyprov profile` dump: the
   file must parse as JSON, carry the whyprov.profile/3 schema, record
   at least one run, and its rules must satisfy the profile's internal
   arithmetic — per-atom "out" counts summing to the rule's "tuples",
   "duplicates" = "emitted" - "derived" (docs/OBSERVABILITY.md,
   "Rule-level profiles"). Given the whyprov.metrics/1 dump of the same
   command, the rules' "firings", "derived" and "tuples" must also sum
   to its eval.rule_firings, eval.facts_derived and eval.tuples_matched
   counters.

   Usage: validate_profile.exe PROFILE [METRICS] *)

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

let load path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  try Json.parse src
  with Json.Parse_error msg -> fail "%s: invalid JSON: %s" path msg

let check_schema path json schema =
  match Json.member "schema" json with
  | Some (Json.Str s) when s = schema -> ()
  | _ -> fail "%s: missing or wrong schema version" path

let () =
  let path, metrics =
    match Array.to_list Sys.argv with
    | [ _; path ] -> (path, None)
    | [ _; path; metrics ] -> (path, Some metrics)
    | _ -> fail "usage: validate_profile.exe PROFILE [METRICS]"
  in
  let json = load path in
  check_schema path json "whyprov.profile/3";
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
    rules;
  Option.iter
    (fun mpath ->
      let m = load mpath in
      check_schema mpath m "whyprov.metrics/1";
      let counters =
        match Json.member "counters" m with
        | Some c -> c
        | None -> fail "%s: no counters" mpath
      in
      List.iter
        (fun (field, counter) ->
          let total = List.fold_left (fun acc r -> acc +. num field r) 0.0 rules in
          let value =
            match Json.member counter counters with Some (Json.Num n) -> n | _ -> 0.0
          in
          if total <> value then
            fail "%s: rules' %s sum to %.0f, %s is %.0f" path field total counter value)
        [ ("firings", "eval.rule_firings"); ("derived", "eval.facts_derived");
          ("tuples", "eval.tuples_matched") ])
    metrics
