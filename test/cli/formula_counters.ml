(* Prints the counters of a `whyprov --stats-out FILE` dump that pin
   the size of the downward closure and of its CNF encoding — closure
   nodes, rule instances and db facts; encoded hyperedges, variables and
   clauses per component; fill edges — plus the largest elimination
   width, one "name value" line each in name order. Timings and solver
   counters are dropped, so two builds that encode the same formula up
   to variable renaming print the same thing.

   Usage: formula_counters.exe FILE *)

module Json = Util.Metrics.Json

let kept name =
  List.mem name [ "closure.nodes"; "closure.rule_instances"; "closure.db_facts";
                  "encode.hyperedges"; "encode.fill_edges" ]
  || List.exists
       (fun prefix -> String.starts_with ~prefix name)
       [ "encode.vars."; "encode.clauses." ]

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
      prerr_endline "usage: formula_counters.exe FILE";
      exit 2
  in
  let ic = open_in_bin path in
  let json = Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let section name =
    match Json.member name json with Some (Json.Obj fields) -> fields | _ -> []
  in
  let lines =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Json.Num x when kept name -> Some (Printf.sprintf "%s %.0f" name x)
        | _ -> None)
      (section "counters")
    @ List.filter_map
        (fun (name, h) ->
          match Json.member "max" h with
          | Some (Json.Num x) when name = "encode.elim_width" ->
            Some (Printf.sprintf "%s.max %.0f" name x)
          | _ -> None)
        (section "histograms")
  in
  List.iter print_endline (List.sort compare lines)
