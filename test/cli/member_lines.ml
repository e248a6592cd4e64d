(* Prints the member lines of a `whyprov explain` or `batch` output
   file, one per line with the " N. " index stripped; the header, total
   and proof-tree lines are dropped. With --sort the lines come out
   sorted, so two runs that enumerate the same member set in different
   orders print the same thing.

   Usage: member_lines.exe [--sort] FILE *)

let member_line line =
  let line = String.trim line in
  match String.index_opt line '.' with
  | Some i
    when i > 0
         && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub line 0 i)
         && String.length line > i + 2
         && line.[i + 1] = ' '
         && line.[i + 2] = '{' ->
    Some (String.sub line (i + 2) (String.length line - i - 2))
  | _ -> None

let () =
  let sort, path =
    match Array.to_list Sys.argv with
    | [ _; "--sort"; path ] -> (true, path)
    | [ _; path ] -> (false, path)
    | _ ->
      prerr_endline "usage: member_lines.exe [--sort] FILE";
      exit 2
  in
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (match member_line line with Some m -> m :: acc | None -> acc)
    | exception End_of_file -> List.rev acc
  in
  let members = read [] in
  close_in ic;
  List.iter print_endline (if sort then List.sort compare members else members)
