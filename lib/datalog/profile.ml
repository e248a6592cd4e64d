module Json = Util.Metrics.Json

(* ------------------------------------------------------------------ *)
(* Enablement                                                          *)
(* ------------------------------------------------------------------ *)

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(* ------------------------------------------------------------------ *)
(* Engine-side collection                                              *)
(* ------------------------------------------------------------------ *)

type task = {
  out : int array;
  mutable new_rows : int;
  mutable secs : float;
}

let task_create n = { out = Array.make (max n 1) 0; new_rows = 0; secs = 0.0 }
let now_s = Unix.gettimeofday

(* Per-rule accumulator of one fixpoint run. Arrays are indexed by body
   position (not join-order position): positions are stable across the
   full plan and every delta variant of the rule, so the per-atom
   totals merge cleanly whatever order each plan chose. *)
type rule_acc = {
  k_rule : Rule.t;
  k_preds : Symbol.t array;  (* body predicate per position *)
  mutable k_order : int array;  (* full-plan join order; [||] until seen *)
  mutable k_firings : int;
  mutable k_secs : float;
  mutable k_tuples : int;
  mutable k_emitted : int;
  mutable k_derived : int;
  mutable k_probes : int;
  mutable k_hits : int;
  mutable k_scans : int;
  k_in : int array;
  k_out : int array;
}

type run = {
  u_rules : rule_acc array;  (* dense, indexed by rule id *)
  u_sccs : Symbol.t list array;
  u_scc_of : (Symbol.t, int) Hashtbl.t;
  u_scc_rounds : int array;
  u_scc_derived : int array;
  mutable u_rounds : int;
}

let run_begin program sccs =
  let rules = Array.of_list (Program.rules program) in
  let u_rules =
    Array.map
      (fun r ->
        let body = Array.of_list (Rule.body r) in
        let n = Array.length body in
        {
          k_rule = r;
          k_preds = Array.map (fun (a : Atom.t) -> a.Atom.pred) body;
          k_order = [||];
          k_firings = 0;
          k_secs = 0.0;
          k_tuples = 0;
          k_emitted = 0;
          k_derived = 0;
          k_probes = 0;
          k_hits = 0;
          k_scans = 0;
          k_in = Array.make n 0;
          k_out = Array.make n 0;
        })
      rules
  in
  let u_sccs = Array.of_list sccs in
  let u_scc_of = Hashtbl.create 16 in
  Array.iteri
    (fun i scc -> List.iter (fun p -> Hashtbl.replace u_scc_of p i) scc)
    u_sccs;
  {
    u_rules;
    u_sccs;
    u_scc_of;
    u_scc_rounds = Array.make (Array.length u_sccs) 0;
    u_scc_derived = Array.make (Array.length u_sccs) 0;
    u_rounds = 0;
  }

let record_task run (plan : Plan.t) (t : task) ~probes ~hits ~scans =
  let id = plan.Plan.p_rule.Rule.id in
  if id >= 0 && id < Array.length run.u_rules then begin
    let acc = run.u_rules.(id) in
    let instrs = plan.Plan.p_instrs in
    let n = Array.length instrs in
    acc.k_firings <- acc.k_firings + 1;
    acc.k_secs <- acc.k_secs +. t.secs;
    acc.k_derived <- acc.k_derived + t.new_rows;
    acc.k_probes <- acc.k_probes + probes;
    acc.k_hits <- acc.k_hits + hits;
    acc.k_scans <- acc.k_scans + scans;
    if n > 0 then acc.k_emitted <- acc.k_emitted + t.out.(n - 1);
    if plan.Plan.p_delta < 0 && Array.length acc.k_order = 0 then
      acc.k_order <- Array.map (fun i -> i.Plan.i_atom) instrs;
    for j = 0 to n - 1 do
      let pos = instrs.(j).Plan.i_atom in
      let inj = if j = 0 then 1 else t.out.(j - 1) in
      let outj = t.out.(j) in
      acc.k_tuples <- acc.k_tuples + outj;
      if pos >= 0 && pos < Array.length acc.k_in then begin
        acc.k_in.(pos) <- acc.k_in.(pos) + inj;
        acc.k_out.(pos) <- acc.k_out.(pos) + outj
      end
    done
  end

let record_round run deltas =
  run.u_rounds <- run.u_rounds + 1;
  let marked = Hashtbl.create 8 in
  List.iter
    (fun (pred, n) ->
      if n > 0 then
        match Hashtbl.find_opt run.u_scc_of pred with
        | None -> ()
        | Some c ->
          run.u_scc_derived.(c) <- run.u_scc_derived.(c) + n;
          if not (Hashtbl.mem marked c) then begin
            Hashtbl.add marked c ();
            run.u_scc_rounds.(c) <- run.u_scc_rounds.(c) + 1
          end)
    deltas

(* ------------------------------------------------------------------ *)
(* The accumulated profile                                             *)
(* ------------------------------------------------------------------ *)

(* Rule ids are dense per program ({!Program.make} renumbers), so two
   different programs profiled in one process — e.g. two workloads in
   one test run — can reuse an id. The aggregate therefore keys rules
   by (id, text) and components by their sorted member list; the
   common single-program case degenerates to plain id keying. *)
type rule_agg = {
  g_id : int;
  g_head : Symbol.t;
  g_text : string;
  g_preds : Symbol.t array;
  mutable g_order : int array;
  mutable g_firings : int;
  mutable g_secs : float;
  mutable g_tuples : int;
  mutable g_emitted : int;
  mutable g_derived : int;
  mutable g_probes : int;
  mutable g_hits : int;
  mutable g_scans : int;
  g_in : int array;
  g_out : int array;
}

type scc_agg = {
  h_ord : int;  (* topological position at first sighting *)
  h_preds : Symbol.t list;
  mutable h_rounds : int;
  mutable h_derived : int;
}

let lock = Mutex.create ()
let agg_rules : (int * string, rule_agg) Hashtbl.t = Hashtbl.create 32
let agg_sccs : (string, scc_agg) Hashtbl.t = Hashtbl.create 32
let agg_runs = ref 0
let agg_rounds = ref 0

let reset () =
  Mutex.lock lock;
  Hashtbl.reset agg_rules;
  Hashtbl.reset agg_sccs;
  agg_runs := 0;
  agg_rounds := 0;
  Mutex.unlock lock

let scc_key preds = String.concat "," (List.map Symbol.name preds)

let run_end run =
  Mutex.lock lock;
  incr agg_runs;
  agg_rounds := !agg_rounds + run.u_rounds;
  Array.iter
    (fun acc ->
      let text = Rule.to_string acc.k_rule in
      let key = (acc.k_rule.Rule.id, text) in
      let g =
        match Hashtbl.find_opt agg_rules key with
        | Some g -> g
        | None ->
          let n = Array.length acc.k_preds in
          let g =
            {
              g_id = acc.k_rule.Rule.id;
              g_head = (Rule.head acc.k_rule).Atom.pred;
              g_text = text;
              g_preds = acc.k_preds;
              g_order = [||];
              g_firings = 0;
              g_secs = 0.0;
              g_tuples = 0;
              g_emitted = 0;
              g_derived = 0;
              g_probes = 0;
              g_hits = 0;
              g_scans = 0;
              g_in = Array.make n 0;
              g_out = Array.make n 0;
            }
          in
          Hashtbl.add agg_rules key g;
          g
      in
      if Array.length g.g_order = 0 then g.g_order <- acc.k_order;
      g.g_firings <- g.g_firings + acc.k_firings;
      g.g_secs <- g.g_secs +. acc.k_secs;
      g.g_tuples <- g.g_tuples + acc.k_tuples;
      g.g_emitted <- g.g_emitted + acc.k_emitted;
      g.g_derived <- g.g_derived + acc.k_derived;
      g.g_probes <- g.g_probes + acc.k_probes;
      g.g_hits <- g.g_hits + acc.k_hits;
      g.g_scans <- g.g_scans + acc.k_scans;
      for i = 0 to Array.length acc.k_in - 1 do
        g.g_in.(i) <- g.g_in.(i) + acc.k_in.(i);
        g.g_out.(i) <- g.g_out.(i) + acc.k_out.(i)
      done)
    run.u_rules;
  Array.iteri
    (fun i preds ->
      let key = scc_key preds in
      let h =
        match Hashtbl.find_opt agg_sccs key with
        | Some h -> h
        | None ->
          let h = { h_ord = i; h_preds = preds; h_rounds = 0; h_derived = 0 } in
          Hashtbl.add agg_sccs key h;
          h
      in
      h.h_rounds <- h.h_rounds + run.u_scc_rounds.(i);
      h.h_derived <- h.h_derived + run.u_scc_derived.(i))
    run.u_sccs;
  Mutex.unlock lock

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type atom_stat = {
  a_pos : int;
  a_pred : Symbol.t;
  a_in : int;
  a_out : int;
}

type rule_stat = {
  r_id : int;
  r_head : Symbol.t;
  r_text : string;
  r_order : int array;
  r_firings : int;
  r_secs : float;
  r_tuples : int;
  r_emitted : int;
  r_derived : int;
  r_probes : int;
  r_hits : int;
  r_scans : int;
  r_atoms : atom_stat array;
}

type scc_stat = { c_preds : Symbol.t list; c_rounds : int; c_derived : int }

type t = {
  runs : int;
  rounds : int;
  rules : rule_stat list;
  sccs : scc_stat list;
}

let snapshot () =
  Mutex.lock lock;
  let rules =
    Hashtbl.fold
      (fun _ g acc ->
        {
          r_id = g.g_id;
          r_head = g.g_head;
          r_text = g.g_text;
          r_order = Array.copy g.g_order;
          r_firings = g.g_firings;
          r_secs = g.g_secs;
          r_tuples = g.g_tuples;
          r_emitted = g.g_emitted;
          r_derived = g.g_derived;
          r_probes = g.g_probes;
          r_hits = g.g_hits;
          r_scans = g.g_scans;
          r_atoms =
            Array.init (Array.length g.g_preds) (fun i ->
                {
                  a_pos = i;
                  a_pred = g.g_preds.(i);
                  a_in = g.g_in.(i);
                  a_out = g.g_out.(i);
                });
        }
        :: acc)
      agg_rules []
    |> List.sort (fun a b -> compare (a.r_id, a.r_text) (b.r_id, b.r_text))
  in
  let sccs =
    Hashtbl.fold
      (fun key h acc -> (h.h_ord, key, h) :: acc)
      agg_sccs []
    |> List.sort compare
    |> List.map (fun (_, _, h) ->
           { c_preds = h.h_preds; c_rounds = h.h_rounds; c_derived = h.h_derived })
  in
  let result = { runs = !agg_runs; rounds = !agg_rounds; rules; sccs } in
  Mutex.unlock lock;
  result

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let schema_version = "whyprov.profile/3"

let num_i n = Json.Num (float_of_int n)

let to_json ?(times = true) t =
  let atom_json a =
    Json.Obj
      [
        ("pos", num_i a.a_pos);
        ("pred", Json.Str (Symbol.name a.a_pred));
        ("in", num_i a.a_in);
        ("out", num_i a.a_out);
      ]
  in
  let rule_json r =
    Json.Obj
      ([
         ("id", num_i r.r_id);
         ("head", Json.Str (Symbol.name r.r_head));
         ("rule", Json.Str r.r_text);
         ("order", Json.List (Array.to_list (Array.map num_i r.r_order)));
         ("firings", num_i r.r_firings);
       ]
      @ (if times then [ ("time_s", Json.Num r.r_secs) ] else [])
      @ [
          ("tuples", num_i r.r_tuples);
          ("emitted", num_i r.r_emitted);
          ("derived", num_i r.r_derived);
          ("duplicates", num_i (r.r_emitted - r.r_derived));
          ("probes", num_i r.r_probes);
          ("hits", num_i r.r_hits);
          ("scans", num_i r.r_scans);
          ("atoms", Json.List (Array.to_list (Array.map atom_json r.r_atoms)));
        ])
  in
  let scc_json c =
    Json.Obj
      [
        ( "preds",
          Json.List (List.map (fun p -> Json.Str (Symbol.name p)) c.c_preds) );
        ("rounds", num_i c.c_rounds);
        ("derived", num_i c.c_derived);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("runs", num_i t.runs);
      ("rounds", num_i t.rounds);
      ("sccs", Json.List (List.map scc_json t.sccs));
      ("rules", Json.List (List.map rule_json t.rules));
    ]

let pp_secs ppf s =
  if s < 0.001 then Format.fprintf ppf "%.0fµs" (s *. 1e6)
  else if s < 1.0 then Format.fprintf ppf "%.1fms" (s *. 1e3)
  else Format.fprintf ppf "%.2fs" s

let fanout out_ inn = if inn = 0 then 0.0 else float_of_int out_ /. float_of_int inn

let pp ?(top = 5) ppf t =
  let total_secs = List.fold_left (fun a r -> a +. r.r_secs) 0.0 t.rules in
  Format.fprintf ppf "profile: %d run(s), %d round(s), %d rule(s), %a rule time@."
    t.runs t.rounds (List.length t.rules) pp_secs total_secs;
  let hot =
    List.sort
      (fun a b ->
        compare (b.r_secs, b.r_tuples, a.r_id) (a.r_secs, a.r_tuples, b.r_id))
      t.rules
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  (match take top hot with
  | [] -> ()
  | hot ->
    Format.fprintf ppf "hot rules (by wall time):@.";
    List.iter
      (fun r ->
        Format.fprintf ppf "  rule %-3d %a  %d tuples, %d derived — %s@." r.r_id
          pp_secs r.r_secs r.r_tuples r.r_derived r.r_text)
      hot);
  (* The tree: SCC -> rule -> atom. Rules hang off the component that
     contains their head predicate. *)
  List.iteri
    (fun ci c ->
      let rules =
        List.filter
          (fun r -> List.exists (Symbol.equal r.r_head) c.c_preds)
          t.rules
      in
      if rules <> [] || c.c_derived > 0 then begin
        Format.fprintf ppf "scc %d {%s}: %d round(s), %d derived@." ci
          (String.concat ", " (List.map Symbol.name c.c_preds))
          c.c_rounds c.c_derived;
        List.iter
          (fun r ->
            Format.fprintf ppf "  rule %d: %s@." r.r_id r.r_text;
            let dup = r.r_emitted - r.r_derived in
            let dup_pct =
              if r.r_emitted = 0 then 0.0
              else 100.0 *. float_of_int dup /. float_of_int r.r_emitted
            in
            let hit_pct =
              if r.r_probes = 0 then 100.0
              else 100.0 *. float_of_int r.r_hits /. float_of_int r.r_probes
            in
            Format.fprintf ppf
              "    fired %d×, %a, %d tuples, %d emitted, %d derived (%.1f%% \
               dup), %d probes (%.1f%% hit), %d scans@."
              r.r_firings pp_secs r.r_secs r.r_tuples r.r_emitted r.r_derived
              dup_pct r.r_probes hit_pct r.r_scans;
            Array.iter
              (fun a ->
                Format.fprintf ppf
                  "    atom[%d] %s: in %d, out %d, fan-out %.2f@." a.a_pos
                  (Symbol.name a.a_pred) a.a_in a.a_out (fanout a.a_out a.a_in))
              r.r_atoms)
          rules
      end)
    t.sccs
