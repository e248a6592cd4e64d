module Metrics = Util.Metrics
module Json = Metrics.Json

(* ------------------------------------------------------------------ *)
(* Enablement: one bit of the shared enable word                       *)
(* ------------------------------------------------------------------ *)

let set_enabled on = Metrics.set_bit Metrics.profile_bit on
let is_enabled () = Atomic.get Metrics.enable_word land Metrics.profile_bit <> 0

(* ------------------------------------------------------------------ *)
(* Per-rule tallies                                                    *)
(* ------------------------------------------------------------------ *)

(* One type serves the engine's per-fixpoint tally, the accumulated
   profile and its snapshots. [r_in]/[r_out] are indexed by body
   position, not join-order position: positions are stable across the
   full plan and every delta variant of the rule, so the per-atom
   totals merge whatever order each plan chose. *)
type tally = {
  r_rule : Rule.t;
  r_order : int array;
  mutable r_firings : int;
  mutable r_secs : float;
  mutable r_tuples : int;
  mutable r_emitted : int;
  mutable r_derived : int;
  mutable r_probes : int;
  mutable r_hits : int;
  mutable r_scans : int;
  r_in : int array;
  r_out : int array;
}

let zero rule order =
  let n = List.length (Rule.body rule) in
  {
    r_rule = rule;
    r_order = order;
    r_firings = 0;
    r_secs = 0.0;
    r_tuples = 0;
    r_emitted = 0;
    r_derived = 0;
    r_probes = 0;
    r_hits = 0;
    r_scans = 0;
    r_in = Array.make n 0;
    r_out = Array.make n 0;
  }

let tally (plan : Plan.t) =
  zero plan.Plan.p_rule (Array.map (fun i -> i.Plan.i_atom) plan.Plan.p_instrs)

let merge ~into t =
  into.r_firings <- into.r_firings + t.r_firings;
  into.r_secs <- into.r_secs +. t.r_secs;
  into.r_tuples <- into.r_tuples + t.r_tuples;
  into.r_emitted <- into.r_emitted + t.r_emitted;
  into.r_derived <- into.r_derived + t.r_derived;
  into.r_probes <- into.r_probes + t.r_probes;
  into.r_hits <- into.r_hits + t.r_hits;
  into.r_scans <- into.r_scans + t.r_scans;
  Array.iteri (fun i n -> into.r_in.(i) <- into.r_in.(i) + n) t.r_in;
  Array.iteri (fun i n -> into.r_out.(i) <- into.r_out.(i) + n) t.r_out

let id t = t.r_rule.Rule.id
let head t = (Rule.head t.r_rule).Atom.pred

(* ------------------------------------------------------------------ *)
(* Per-SCC rounds                                                      *)
(* ------------------------------------------------------------------ *)

type scc = {
  c_preds : Symbol.t list;
  mutable c_rounds : int;
  mutable c_derived : int;
}

type run = {
  u_sccs : scc array;
  u_scc_of : (Symbol.t, int) Hashtbl.t;
  u_last : int array;  (* the last round each component derived in *)
  mutable u_rounds : int;
}

let run_begin sccs =
  let u_sccs =
    Array.of_list
      (List.map (fun preds -> { c_preds = preds; c_rounds = 0; c_derived = 0 }) sccs)
  in
  let u_scc_of = Hashtbl.create 16 in
  Array.iteri
    (fun i c -> List.iter (fun p -> Hashtbl.replace u_scc_of p i) c.c_preds)
    u_sccs;
  { u_sccs; u_scc_of; u_last = Array.make (Array.length u_sccs) 0; u_rounds = 0 }

let record_round run ranges =
  run.u_rounds <- run.u_rounds + 1;
  Hashtbl.iter
    (fun pred (lo, hi) ->
      match Hashtbl.find_opt run.u_scc_of pred with
      | Some i when hi > lo ->
        let c = run.u_sccs.(i) in
        c.c_derived <- c.c_derived + (hi - lo);
        if run.u_last.(i) < run.u_rounds then begin
          run.u_last.(i) <- run.u_rounds;
          c.c_rounds <- c.c_rounds + 1
        end
      | _ -> ())
    ranges

(* ------------------------------------------------------------------ *)
(* The accumulated profile                                             *)
(* ------------------------------------------------------------------ *)

(* Rule ids are dense per program ({!Program.make} renumbers), so two
   different programs profiled in one process — e.g. two workloads in
   one test run — can reuse an id. The aggregate therefore keys rules
   by (id, text) and components by their sorted member list, with the
   topological position of their first sighting; the common
   single-program case degenerates to plain id keying. *)
let lock = Mutex.create ()
let agg_rules : (int * string, tally) Hashtbl.t = Hashtbl.create 32
let agg_sccs : (string, int * scc) Hashtbl.t = Hashtbl.create 32
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

let run_end run tallies =
  Mutex.lock lock;
  incr agg_runs;
  agg_rounds := !agg_rounds + run.u_rounds;
  Array.iter
    (fun t ->
      let key = (id t, Rule.to_string t.r_rule) in
      let g =
        match Hashtbl.find_opt agg_rules key with
        | Some g -> g
        | None ->
          let g = zero t.r_rule t.r_order in
          Hashtbl.add agg_rules key g;
          g
      in
      merge ~into:g t)
    tallies;
  Array.iteri
    (fun i c ->
      let key = scc_key c.c_preds in
      let _, g =
        match Hashtbl.find_opt agg_sccs key with
        | Some e -> e
        | None ->
          let e = (i, { c with c_rounds = 0; c_derived = 0 }) in
          Hashtbl.add agg_sccs key e;
          e
      in
      g.c_rounds <- g.c_rounds + c.c_rounds;
      g.c_derived <- g.c_derived + c.c_derived)
    run.u_sccs;
  Mutex.unlock lock

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type t = { runs : int; rounds : int; rules : tally list; sccs : scc list }

let snapshot () =
  Mutex.lock lock;
  let rules =
    Hashtbl.fold
      (fun key g acc ->
        let c = zero g.r_rule (Array.copy g.r_order) in
        merge ~into:c g;
        (key, c) :: acc)
      agg_rules []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let sccs =
    Hashtbl.fold (fun key (ord, g) acc -> ((ord, key), g) :: acc) agg_sccs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (_, g) -> { g with c_preds = g.c_preds })
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
  let atom_json r i (a : Atom.t) =
    Json.Obj
      [
        ("pos", num_i i);
        ("pred", Json.Str (Symbol.name a.Atom.pred));
        ("in", num_i r.r_in.(i));
        ("out", num_i r.r_out.(i));
      ]
  in
  let rule_json r =
    Json.Obj
      ([
         ("id", num_i (id r));
         ("head", Json.Str (Symbol.name (head r)));
         ("rule", Json.Str (Rule.to_string r.r_rule));
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
          ("atoms", Json.List (List.mapi (atom_json r) (Rule.body r.r_rule)));
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
        compare (b.r_secs, b.r_tuples, id a) (a.r_secs, a.r_tuples, id b))
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
        Format.fprintf ppf "  rule %-3d %a  %d tuples, %d derived — %s@." (id r)
          pp_secs r.r_secs r.r_tuples r.r_derived (Rule.to_string r.r_rule))
      hot);
  (* The tree: SCC -> rule -> atom. Rules hang off the component that
     contains their head predicate. *)
  List.iteri
    (fun ci c ->
      let rules =
        List.filter
          (fun r -> List.exists (Symbol.equal (head r)) c.c_preds)
          t.rules
      in
      if rules <> [] || c.c_derived > 0 then begin
        Format.fprintf ppf "scc %d {%s}: %d round(s), %d derived@." ci
          (String.concat ", " (List.map Symbol.name c.c_preds))
          c.c_rounds c.c_derived;
        List.iter
          (fun r ->
            Format.fprintf ppf "  rule %d: %s@." (id r) (Rule.to_string r.r_rule);
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
            List.iteri
              (fun i (a : Atom.t) ->
                let inn = r.r_in.(i) and out_ = r.r_out.(i) in
                Format.fprintf ppf
                  "    atom[%d] %s: in %d, out %d, fan-out %.2f@." i
                  (Symbol.name a.Atom.pred) inn out_ (fanout out_ inn))
              (Rule.body r.r_rule))
          rules
      end)
    t.sccs
