open Datalog
module Metrics = Util.Metrics
module Json = Util.Metrics.Json

let m_checks = Metrics.counter "analysis.checks"
let m_diag_errors = Metrics.counter "analysis.diagnostics.errors"
let m_diag_warnings = Metrics.counter "analysis.diagnostics.warnings"
let m_diag_infos = Metrics.counter "analysis.diagnostics.infos"

type result = {
  diagnostics : Diagnostic.t list;
  errors : int;
  warnings : int;
  infos : int;
  program : Program.t option;
  facts : Fact.t list;
  classification : Classify.t option;
  selection : Selection.t option;
}

let ok r = r.errors = 0
let clean r = r.errors = 0 && r.warnings = 0

type builder = { mutable diags : Diagnostic.t list }

let add b ~code ~severity ?pos message =
  b.diags <- Diagnostic.make ~code ~severity ?pos message :: b.diags

let names syms = String.concat ", " (List.map Symbol.name syms)

(* ------------------------------------------------------------------ *)
(* Stage 1: clause-level checks on the raw parse (before a Program can
   be built). Errors here are exactly the conditions under which
   Parser.parse_string or Program.make would raise. *)

(* WP003: each predicate's arity is fixed by its first occurrence in
   the file, a rule atom or a fact. Rule atoms are met in file order;
   a block's first row is its earliest fact. *)
let check_arities b (raw : Parser.raw) =
  let first : (Symbol.t, int * Pos.t) Hashtbl.t = Hashtbl.create 32 in
  let rule_atoms f =
    List.iter
      (fun (c : Parser.raw_clause) ->
        f c.Parser.raw_head;
        List.iter f c.Parser.raw_body)
      raw.Parser.clauses
  in
  rule_atoms (fun a ->
      if not (Hashtbl.mem first a.Atom.pred) then
        Hashtbl.replace first a.Atom.pred (Atom.arity a, a.Atom.pos));
  List.iter
    (fun (blk : Parser.block) ->
      let pos = Parser.row_pos raw blk 0 in
      match Hashtbl.find_opt first blk.Parser.pred with
      | Some (_, p) when Pos.compare p pos < 0 -> ()
      | _ -> Hashtbl.replace first blk.Parser.pred (blk.Parser.arity, pos))
    raw.Parser.blocks;
  let clash pred arity pos =
    let n, first_pos = Hashtbl.find first pred in
    if n <> arity then
      add b ~code:"WP003" ~severity:Diagnostic.Error ~pos
        (Printf.sprintf "predicate %s used with arity %d, but with arity %d at %s"
           (Symbol.name pred) arity n (Pos.to_string first_pos))
  in
  rule_atoms (fun a -> clash a.Atom.pred (Atom.arity a) a.Atom.pos);
  List.iter
    (fun (blk : Parser.block) ->
      if fst (Hashtbl.find first blk.Parser.pred) <> blk.Parser.arity then
        for i = 0 to blk.Parser.length - 1 do
          clash blk.Parser.pred blk.Parser.arity (Parser.row_pos raw blk i)
        done)
    raw.Parser.blocks

(* A variable's name as written: [_] takes a fresh internal name. *)
let var_name v =
  let s = Symbol.name v in
  if String.length s > 1 && s.[0] = '_' && s.[1] = '#' then "_" else s

let idb_fact b ~pos pred =
  add b ~code:"WP004" ~severity:Diagnostic.Error ~pos
    (Printf.sprintf
       "fact asserts the intensional predicate %s (facts must use \
        extensional predicates)"
       (Symbol.name pred))

(* WP002 and WP004 on the bodyless clauses that are not facts, WP001 on
   the rules. *)
let check_clause_shape b rule_heads (raw : Parser.raw_clause) =
  if raw.Parser.raw_body = [] then begin
    add b ~code:"WP002" ~severity:Diagnostic.Error ~pos:raw.Parser.raw_pos
      (Printf.sprintf
         "fact with variables: a bodyless clause must be ground (variables %s)"
         (String.concat ", " (List.map var_name (Atom.vars raw.Parser.raw_head))));
    if Hashtbl.mem rule_heads raw.Parser.raw_head.Atom.pred then
      idb_fact b ~pos:raw.Parser.raw_pos raw.Parser.raw_head.Atom.pred
  end
  else
    match Rule.unsafe_vars raw.Parser.raw_head raw.Parser.raw_body with
    | [] -> ()
    | vs ->
      add b ~code:"WP001" ~severity:Diagnostic.Error ~pos:raw.Parser.raw_pos
        (Printf.sprintf
           "unsafe rule: head variable%s %s %s not occur in the body"
           (if List.length vs = 1 then "" else "s")
           (names vs)
           (if List.length vs = 1 then "does" else "do"))

(* ------------------------------------------------------------------ *)
(* Stage 2: program-level checks. Only reached when stage 1 reported no
   errors, so rules are safe and arities are consistent. *)

(* Alpha-equivalence key: variables renamed in order of first occurrence
   (head first), constants and predicates by interned id. Body order is
   significant; reordered-but-equivalent rules are caught by the
   subsumption check instead. *)
let canon_rule r =
  let buf = Buffer.create 64 in
  let map : (Symbol.t, int) Hashtbl.t = Hashtbl.create 8 in
  let counter = ref 0 in
  let term = function
    | Term.Const c -> Buffer.add_string buf (Printf.sprintf "c%d;" c)
    | Term.Var v ->
      let i =
        match Hashtbl.find_opt map v with
        | Some i -> i
        | None ->
          let i = !counter in
          incr counter;
          Hashtbl.replace map v i;
          i
      in
      Buffer.add_string buf (Printf.sprintf "V%d;" i)
  in
  let atom (a : Atom.t) =
    Buffer.add_string buf (Printf.sprintf "%d(" a.Atom.pred);
    Array.iter term a.Atom.args;
    Buffer.add_char buf ')'
  in
  atom (Rule.head r);
  List.iter
    (fun a ->
      Buffer.add_string buf ":-";
      atom a)
    (Rule.body r);
  Buffer.contents buf

(* [subsumes ra rb]: is there a substitution θ with θ(head ra) = head rb
   and θ(body ra) ⊆ body rb (as sets)? Then every fact rb derives, ra
   derives too, with a sub-multiset of the body — rb is redundant. *)
let subsumes ra rb =
  let binding : (Symbol.t, Term.t) Hashtbl.t = Hashtbl.create 8 in
  let match_atom (a : Atom.t) (target : Atom.t) undo =
    if
      Symbol.compare a.Atom.pred target.Atom.pred <> 0
      || Atom.arity a <> Atom.arity target
    then false
    else begin
      let ok = ref true in
      let i = ref 0 in
      let n = Atom.arity a in
      while !ok && !i < n do
        (match (a.Atom.args.(!i), target.Atom.args.(!i)) with
        | Term.Const c1, Term.Const c2 ->
          if Symbol.compare c1 c2 <> 0 then ok := false
        | Term.Const _, Term.Var _ -> ok := false
        | Term.Var v, t2 -> (
          match Hashtbl.find_opt binding v with
          | Some t -> if not (Term.equal t t2) then ok := false
          | None ->
            Hashtbl.replace binding v t2;
            undo := v :: !undo));
        incr i
      done;
      !ok
    end
  in
  let unwind undo = List.iter (Hashtbl.remove binding) !undo in
  let undo_head = ref [] in
  if not (match_atom (Rule.head ra) (Rule.head rb) undo_head) then begin
    unwind undo_head;
    false
  end
  else begin
    let targets = Array.of_list (Rule.body rb) in
    let rec search = function
      | [] -> true
      | a :: rest ->
        let rec try_target j =
          if j >= Array.length targets then false
          else begin
            let undo = ref [] in
            if match_atom a targets.(j) undo && search rest then true
            else begin
              unwind undo;
              try_target (j + 1)
            end
          end
        in
        try_target 0
    in
    search (Rule.body ra)
  end

let check_duplicates b rules =
  let seen : (string, Pos.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = canon_rule r in
      match Hashtbl.find_opt seen key with
      | Some first_pos ->
        add b ~code:"WP104" ~severity:Diagnostic.Warning ~pos:(Rule.pos r)
          (Printf.sprintf
           "duplicate rule: identical (up to variable renaming) to the rule \
            at %s"
             (Pos.to_string first_pos))
      | None -> Hashtbl.replace seen key (Rule.pos r))
    rules

let check_subsumption b rules =
  let rules = Array.of_list rules in
  let keys = Array.map canon_rule rules in
  let flagged = Array.make (Array.length rules) false in
  let flag victim by =
    if not flagged.(victim) then begin
      flagged.(victim) <- true;
      add b ~code:"WP105" ~severity:Diagnostic.Warning
        ~pos:(Rule.pos rules.(victim))
        (Printf.sprintf
           "rule is subsumed by the more general rule at %s (everything it \
            derives is already derived there)"
           (Pos.to_string (Rule.pos rules.(by))))
    end
  in
  for i = 0 to Array.length rules - 1 do
    for j = i + 1 to Array.length rules - 1 do
      if not (String.equal keys.(i) keys.(j)) then begin
        let i_subsumes_j = subsumes rules.(i) rules.(j) in
        let j_subsumes_i = subsumes rules.(j) rules.(i) in
        if i_subsumes_j && j_subsumes_i then
          (* mutually subsuming (e.g. one carries a redundant literal):
             keep the one with the shorter body, flag the other *)
          if List.length (Rule.body rules.(i)) <= List.length (Rule.body rules.(j))
          then flag j i
          else flag i j
        else if i_subsumes_j then flag j i
        else if j_subsumes_i then flag i j
      end
    done
  done

let check_cross_products b rules =
  List.iter
    (fun r ->
      let atoms = Array.of_list (Rule.body r) in
      let n = Array.length atoms in
      if n >= 2 then begin
        let parent = Array.init n (fun i -> i) in
        let rec find i = if parent.(i) = i then i else find parent.(i) in
        let union i j =
          let ri = find i and rj = find j in
          if ri <> rj then parent.(ri) <- rj
        in
        let var_home : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
        Array.iteri
          (fun i a ->
            List.iter
              (fun v ->
                match Hashtbl.find_opt var_home v with
                | Some j -> union i j
                | None -> Hashtbl.replace var_home v i)
              (Atom.vars a))
          atoms;
        let roots = Hashtbl.create 4 in
        Array.iteri (fun i _ -> Hashtbl.replace roots (find i) ()) atoms;
        let groups = Hashtbl.length roots in
        if groups > 1 then
          add b ~code:"WP106" ~severity:Diagnostic.Warning ~pos:(Rule.pos r)
            (Printf.sprintf
               "rule body is a cross-product: %d groups of atoms share no \
                variable (every combination joins)"
               groups)
      end)
    rules

let check_singleton_vars b rules =
  List.iter
    (fun r ->
      let counts : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
      let order = ref [] in
      let count_atom (a : Atom.t) =
        Array.iter
          (function
            | Term.Var v ->
              (match Hashtbl.find_opt counts v with
              | Some n -> Hashtbl.replace counts v (n + 1)
              | None ->
                Hashtbl.replace counts v 1;
                order := v :: !order)
            | Term.Const _ -> ())
          a.Atom.args
      in
      count_atom (Rule.head r);
      List.iter count_atom (Rule.body r);
      let singletons =
        List.filter
          (fun v ->
            Hashtbl.find counts v = 1
            && not (String.length (Symbol.name v) > 0
                    && (Symbol.name v).[0] = '_'))
          (List.rev !order)
      in
      match singletons with
      | [] -> ()
      | vs ->
        add b ~code:"WP107" ~severity:Diagnostic.Warning ~pos:(Rule.pos r)
          (Printf.sprintf
             "variable%s %s occur%s only once; use '_' for don't-care \
              positions"
             (if List.length vs = 1 then "" else "s")
             (names vs)
             (if List.length vs = 1 then "s" else "")))
    rules

let backward_reachable program query =
  let seen : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec visit p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.replace seen p ();
      List.iter
        (fun r ->
          List.iter (fun (a : Atom.t) -> visit a.Atom.pred) (Rule.body r))
        (Program.rules_for program p)
    end
  in
  visit query;
  seen

let check_reachability b program fact_preds query =
  let reachable = backward_reachable program query in
  List.iter
    (fun r ->
      if not (Hashtbl.mem reachable (Rule.head r).Atom.pred) then
        add b ~code:"WP103" ~severity:Diagnostic.Warning ~pos:(Rule.pos r)
          (Printf.sprintf
             "rule for %s is unreachable from query predicate %s"
             (Symbol.name (Rule.head r).Atom.pred)
             (Symbol.name query)))
    (Program.rules program);
  (* fact-only predicates never consulted while answering the query *)
  List.iter
    (fun (p, n, first) ->
      if not (Hashtbl.mem reachable p) then
        add b ~code:"WP101" ~severity:Diagnostic.Warning ~pos:first
          (Printf.sprintf
             "predicate %s (%d fact%s) is unused: not reachable from query \
              predicate %s"
             (Symbol.name p) n
             (if n = 1 then "" else "s")
             (Symbol.name query)))
    fact_preds;
  reachable

let check_derivability b program fact_preds reachable query =
  let derivable : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (p, _, _) -> Hashtbl.replace derivable p ()) fact_preds;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        let h = (Rule.head r).Atom.pred in
        if
          (not (Hashtbl.mem derivable h))
          && List.for_all
               (fun (a : Atom.t) -> Hashtbl.mem derivable a.Atom.pred)
               (Rule.body r)
        then begin
          Hashtbl.replace derivable h ();
          changed := true
        end)
      (Program.rules program)
  done;
  let in_scope p =
    match reachable with None -> true | Some tbl -> Hashtbl.mem tbl p
  in
  let reported : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if in_scope (Rule.head r).Atom.pred then
        List.iter
          (fun (a : Atom.t) ->
            let p = a.Atom.pred in
            if
              (not (Hashtbl.mem derivable p)) && not (Hashtbl.mem reported p)
            then begin
              Hashtbl.replace reported p ();
              let message =
                if Program.is_edb program p then
                  Printf.sprintf
                    "extensional predicate %s has no facts; this atom can \
                     never match"
                    (Symbol.name p)
                else
                  Printf.sprintf
                    "predicate %s can never derive a fact (all of its rules \
                     depend on underivable predicates)"
                    (Symbol.name p)
              in
              add b ~code:"WP102" ~severity:Diagnostic.Warning ~pos:a.Atom.pos
                message
            end)
          (Rule.body r))
    (Program.rules program);
  match query with
  | Some q when not (Hashtbl.mem derivable q) ->
    if not (Hashtbl.mem reported q) then
      add b ~code:"WP102" ~severity:Diagnostic.Warning
        (Printf.sprintf
           "query predicate %s cannot derive any fact from the facts given \
            here"
           (Symbol.name q))
  | _ -> ()

let check_recursive_sccs b program (classification : Classify.t) =
  List.iter
    (fun (scc : Classify.scc) ->
      if scc.Classify.recursive then begin
        let in_scc p =
          List.exists (fun q -> Symbol.compare p q = 0) scc.Classify.preds
        in
        let pos =
          match
            List.find_opt
              (fun r -> in_scc (Rule.head r).Atom.pred)
              (Program.rules program)
          with
          | Some r -> Rule.pos r
          | None -> Pos.none
        in
        let witness =
          match Classify.cycle_witness program scc.Classify.preds with
          | Some cycle -> String.concat " -> " (List.map Symbol.name cycle)
          | None -> "<no cycle found>"
        in
        add b ~code:"WP201" ~severity:Diagnostic.Info ~pos
          (Printf.sprintf "recursive SCC {%s}: %s"
             (names scc.Classify.preds)
             witness)
      end)
    classification.Classify.sccs

(* ------------------------------------------------------------------ *)
(* Assembly *)

let finish b ~program ~facts ~classification ~selection =
  let diagnostics = List.sort Diagnostic.compare b.diags in
  let count severity =
    List.length
      (List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.severity = severity)
         diagnostics)
  in
  let errors = count Diagnostic.Error in
  let warnings = count Diagnostic.Warning in
  let infos = count Diagnostic.Info in
  Metrics.add m_diag_errors errors;
  Metrics.add m_diag_warnings warnings;
  Metrics.add m_diag_infos infos;
  { diagnostics; errors; warnings; infos; program; facts; classification;
    selection }

let has_errors b =
  List.exists
    (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Error)
    b.diags

(* [fact_preds]: (predicate, fact count, first fact's position) of
   every predicate with facts. *)
let stage2 b program ~fact_preds ~query =
  let rules = Program.rules program in
  check_duplicates b rules;
  check_subsumption b rules;
  check_cross_products b rules;
  check_singleton_vars b rules;
  let reachable =
    match query with
    | Some q -> Some (check_reachability b program fact_preds q)
    | None -> None
  in
  if fact_preds <> [] then
    check_derivability b program fact_preds reachable query;
  let classification = Classify.classify program in
  check_recursive_sccs b program classification;
  let selection = Selection.plan program in
  (classification, selection)

let run_raw ?query (raw : Parser.raw) =
  let b = { diags = [] } in
  check_arities b raw;
  let rule_heads : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (c : Parser.raw_clause) ->
      if c.Parser.raw_body <> [] then
        Hashtbl.replace rule_heads c.Parser.raw_head.Atom.pred ())
    raw.Parser.clauses;
  List.iter (check_clause_shape b rule_heads) raw.Parser.clauses;
  List.iter
    (fun (blk : Parser.block) ->
      if Hashtbl.mem rule_heads blk.Parser.pred then
        for i = 0 to blk.Parser.length - 1 do
          idb_fact b ~pos:(Parser.row_pos raw blk i) blk.Parser.pred
        done)
    raw.Parser.blocks;
  let query_sym =
    match query with
    | None -> None
    | Some name ->
      let q = Symbol.intern name in
      if Hashtbl.mem rule_heads q then Some q
      else begin
        add b ~code:"WP005" ~severity:Diagnostic.Error
          (Printf.sprintf "query predicate %s is not defined by any rule" name);
        None
      end
  in
  if has_errors b then
    finish b ~program:None ~facts:[] ~classification:None ~selection:None
  else begin
    (* No errors: every bodyless clause was a fact, and each fact
       predicate has one arity, hence one block. *)
    let rules =
      List.map
        (fun (c : Parser.raw_clause) ->
          Rule.make ~pos:c.Parser.raw_pos c.Parser.raw_head c.Parser.raw_body)
        raw.Parser.clauses
    in
    match Program.make rules with
    | exception Invalid_argument msg ->
      add b ~code:"WP003" ~severity:Diagnostic.Error msg;
      finish b ~program:None ~facts:[] ~classification:None ~selection:None
    | program ->
      let fact_preds =
        List.map
          (fun (blk : Parser.block) ->
            (blk.Parser.pred, blk.Parser.length, Parser.row_pos raw blk 0))
          raw.Parser.blocks
      in
      let classification, selection =
        stage2 b program ~fact_preds ~query:query_sym
      in
      finish b ~program:(Some program) ~facts:(Parser.facts raw)
        ~classification:(Some classification) ~selection:(Some selection)
  end

let check_raw ?query raw =
  Metrics.incr m_checks;
  Util.Tracing.with_span "analysis.check" (fun () -> run_raw ?query raw)

let syntax_error pos msg =
  let b = { diags = [] } in
  add b ~code:"WP000" ~severity:Diagnostic.Error ~pos ("syntax error: " ^ msg);
  finish b ~program:None ~facts:[] ~classification:None ~selection:None

let check_parsed ?query parse =
  Metrics.incr m_checks;
  Util.Tracing.with_span "analysis.check" (fun () ->
      match parse () with
      | raw -> run_raw ?query raw
      | exception Parser.Error (pos, msg) -> syntax_error pos msg)

let check_string ?query ?(file = "") src =
  check_parsed ?query (fun () -> Parser.parse_raw ~file src)

let check_file ?query path =
  let src = Parser.read_file path in
  check_parsed ?query (fun () -> Parser.parse_raw ~file:path src)

let check_program ?query program =
  Metrics.incr m_checks;
  Util.Tracing.with_span "analysis.check" (fun () ->
      let b = { diags = [] } in
      let query_sym =
        match query with
        | None -> None
        | Some name ->
          let q = Symbol.intern name in
          if Program.is_idb program q then Some q
          else begin
            add b ~code:"WP005" ~severity:Diagnostic.Error
              (Printf.sprintf "query predicate %s is not defined by any rule"
                 name);
            None
          end
      in
      let classification, selection =
        stage2 b program ~fact_preds:[] ~query:query_sym
      in
      finish b ~program:(Some program) ~facts:[]
        ~classification:(Some classification) ~selection:(Some selection))

(* ------------------------------------------------------------------ *)
(* Renderers *)

let pp_human ppf r =
  List.iter
    (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d)
    r.diagnostics;
  (match r.classification with
  | Some c -> Format.fprintf ppf "class: %s@." (Classify.summary c)
  | None -> ());
  (match r.selection with
  | Some s -> Format.fprintf ppf "encoding: %s@." s.Selection.reason
  | None -> ());
  Format.fprintf ppf "%d error(s), %d warning(s), %d info(s)@." r.errors
    r.warnings r.infos

let pos_json (p : Pos.t) =
  if Pos.is_none p then Json.Null
  else
    Json.Obj
      [
        ("file", Json.Str p.Pos.file);
        ("line", Json.Num (float_of_int p.Pos.line));
        ("col", Json.Num (float_of_int p.Pos.col));
      ]

let diagnostic_json (d : Diagnostic.t) =
  Json.Obj
    [
      ("code", Json.Str d.Diagnostic.code);
      ("severity", Json.Str (Diagnostic.severity_name d.Diagnostic.severity));
      ("pos", pos_json d.Diagnostic.pos);
      ("message", Json.Str d.Diagnostic.message);
    ]

let classification_json ?program (c : Classify.t) =
  (* The per-SCC "cycle" witness needs the program's rules; [None] (and
     JSON null) when the classification was computed without one, or
     for non-recursive components. *)
  let cycle_json (s : Classify.scc) =
    match program with
    | Some prog when s.Classify.recursive -> (
      match Classify.cycle_witness prog s.Classify.preds with
      | Some cycle ->
        Json.List (List.map (fun p -> Json.Str (Symbol.name p)) cycle)
      | None -> Json.Null)
    | _ -> Json.Null
  in
  Json.Obj
    [
      ("name", Json.Str (Classify.cls_name c.Classify.cls));
      ("description", Json.Str (Classify.cls_describe c.Classify.cls));
      ("summary", Json.Str (Classify.summary c));
      ("linear", Json.Bool c.Classify.linear);
      ("recursive", Json.Bool c.Classify.recursive);
      ("piecewise_linear", Json.Bool c.Classify.piecewise_linear);
      ("strata", Json.Num (float_of_int c.Classify.strata));
      ("recursive_sccs", Json.Num (float_of_int c.Classify.recursive_sccs));
      ( "sccs",
        Json.List
          (List.map
             (fun (s : Classify.scc) ->
               Json.Obj
                 [
                   ( "preds",
                     Json.List
                       (List.map
                          (fun p -> Json.Str (Symbol.name p))
                          s.Classify.preds) );
                   ("recursive", Json.Bool s.Classify.recursive);
                   ("stratum", Json.Num (float_of_int s.Classify.stratum));
                   ("cycle", cycle_json s);
                 ])
             c.Classify.sccs) );
    ]

let selection_json (s : Selection.t) =
  Json.Obj
    [
      ("skip_acyclicity", Json.Bool s.Selection.skip_acyclicity);
      ("reason", Json.Str s.Selection.reason);
    ]

let json_schema_version = "whyprov.check/3"

let to_json ?file r =
  Json.Obj
    ([ ("schema", Json.Str json_schema_version) ]
    @ (match file with Some f -> [ ("file", Json.Str f) ] | None -> [])
    @ [
        ("ok", Json.Bool (ok r));
        ("errors", Json.Num (float_of_int r.errors));
        ("warnings", Json.Num (float_of_int r.warnings));
        ("infos", Json.Num (float_of_int r.infos));
        ( "class",
          match r.classification with
          | Some c -> classification_json ?program:r.program c
          | None -> Json.Null );
        ( "selection",
          match r.selection with
          | Some s -> selection_json s
          | None -> Json.Null );
        ("diagnostics", Json.List (List.map diagnostic_json r.diagnostics));
      ])
