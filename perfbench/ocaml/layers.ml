(* Per-layer metrics of a traced run. Every workload prints the same
   names (a layer that is not on a workload's path reads 0), so each
   traced record has one shape. The names and units must match the
   per_layer list of BENCHMARK.json; run.py checks that they do. *)

module Trace = Mm_obs.Trace
module Summary = Mm_obs.Summary
module Solver = Mm_lp.Solver
module Bb = Mm_lp.Branch_bound
module Simplex = Mm_lp.Simplex

let names =
  [
    ("request.decode_ms", "ms");
    ("request.encode_ms", "ms");
    ("request.residual_ms", "ms");
    ("server.queue_wait_ms.p50", "ms");
    ("server.queue_wait_ms.p99", "ms");
    ("server.overloaded", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("cache.lease_ms", "ms");
    ("engine.solve_ms.p50", "ms");
    ("engine.solve_ms.p99", "ms");
    ("engine.warm_pivot_ratio", "ratio");
    ("mapper.attempts", "count");
    ("ilp.s", "s");
    ("formulation.build_s", "s");
    ("ilp.residual_s", "s");
    ("detailed.s", "s");
    ("report.encode_ms", "ms");
    ("solve.s", "s");
    ("presolve.s", "s");
    ("presolve.cols_removed", "count");
    ("presolve.rows_removed", "count");
    ("cut_pool.s", "s");
    ("cut_pool.cuts_added", "count");
    ("cut_pool.pivots", "count");
    ("cut_pool.noop_rounds", "count");
    ("separator.cuts.cover", "count");
    ("separator.cuts.lcover", "count");
    ("separator.cuts.gmi", "count");
    ("heuristics.s", "s");
    ("heuristics.dives", "count");
    ("heuristics.incumbent_share", "ratio");
    ("branch_bound.s", "s");
    ("branch_bound.nodes", "count");
    ("branch_bound.node_lp_ms", "ms");
    ("branch_bound.node_overhead_ms", "ms");
    ("branch_bound.max_node_lp_ms", "ms");
    ("branch_bound.node_cuts_added", "count");
    ("solve.residual_s", "s");
    ("simplex.pivots", "count");
    ("simplex.pivots_per_node", "count");
    ("simplex.pivots_per_s", "1/s");
    ("simplex.refactorizations_per_node", "count");
    ("simplex.flips", "count");
    ("simplex.devex_resets", "count");
    ("lu.sparse_share", "ratio");
    ("lu.max_eta", "count");
    ("lu.fill", "count");
    ("trace.overhead_frac", "ratio");
    ("loadgen.lag_ms.max", "ms");
    ("loadgen.backlog", "count");
  ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let get (t : t) k = Option.value (Hashtbl.find_opt t k) ~default:0.
let set (t : t) k v = Hashtbl.replace t k v
let add (t : t) k v = set t k (get t k +. v)
let max_ (t : t) k v = set t k (Float.max (get t k) v)

let events_of trace =
  match Summary.of_lines (Trace.dump_lines trace) with
  | Ok evs -> evs
  | Error msg -> failwith ("trace: " ^ msg)

let phase events name =
  Option.value (List.assoc_opt name (Summary.phase_totals events)) ~default:0.

let counter events name =
  List.fold_left
    (fun acc (e : Summary.event) ->
      if e.Summary.kind = "count" && e.Summary.name = name then acc + e.Summary.n
      else acc)
    0 events

(* Accumulate one traced [Solver.solve] (its trace events and result).
   Raw sums go under internal "_" keys; {!emit} turns them into the
   per-node and share metrics. *)
let add_solve t events (r : Solver.result) =
  let st = r.Solver.stats and mip = r.Solver.mip in
  let lp = st.Solver.lp in
  let fi = float_of_int in
  add t "_solves" 1.;
  add t "solve.s" (phase events "solve");
  add t "presolve.s" (phase events "presolve");
  add t "cut_pool.s" (phase events "cuts");
  add t "heuristics.s" (phase events "heuristic");
  add t "branch_bound.s" (phase events "bb");
  (* [presolved_to] is measured after the root cut loop, so its rows
     include the cuts still live there *)
  let (c0, r0), (c1, r1) = (st.Solver.presolved_from, st.Solver.presolved_to) in
  let live_cuts = st.Solver.cuts_added - st.Solver.cuts_dropped in
  add t "presolve.cols_removed" (fi (c0 - c1));
  add t "presolve.rows_removed" (fi (r0 - (r1 - live_cuts)));
  add t "cut_pool.cuts_added" (fi st.Solver.cuts_added);
  add t "cut_pool.pivots" (fi (counter events "cut_pivots"));
  add t "cut_pool.noop_rounds" (fi (counter events "cut_noop_round"));
  List.iter
    (fun (fam, n) -> add t ("separator.cuts." ^ fam) (fi n))
    st.Solver.cuts_by_family;
  add t "heuristics.dives" (fi st.Solver.heuristic_dives);
  if mip.Bb.incumbent_source = Bb.Heuristic then add t "_heuristic_incumbents" 1.;
  add t "branch_bound.nodes" (fi mip.Bb.nodes);
  add t "_bb_lp_time" mip.Bb.lp_time;
  max_ t "branch_bound.max_node_lp_ms" (1e3 *. mip.Bb.max_node_lp_time);
  add t "branch_bound.node_cuts_added" (fi st.Solver.node_cuts_added);
  add t "simplex.pivots" (fi lp.Simplex.pivots);
  add t "_lp_time" st.Solver.lp_time;
  add t "_refactorizations" (fi lp.Simplex.refactorizations);
  add t "simplex.flips" (fi lp.Simplex.flips);
  add t "simplex.devex_resets" (fi lp.Simplex.devex_resets);
  add t "_sparse" (fi lp.Simplex.sparse_solves);
  add t "_dense" (fi lp.Simplex.dense_fallbacks);
  max_ t "lu.max_eta" (fi lp.Simplex.max_eta);
  max_ t "lu.fill" (fi lp.Simplex.lu_fill)

(* One traced [Mapper.run]: the solver layers plus the mapper's own. *)
let add_mapper t events (o : Mm_mapping.Mapper.outcome) =
  add_solve t events o.Mm_mapping.Mapper.ilp_result;
  add t "_mapper_runs" 1.;
  add t "_attempts" (float_of_int (List.length o.Mm_mapping.Mapper.attempts));
  add t "ilp.s" (phase events "ilp");
  add t "detailed.s" o.Mm_mapping.Mapper.detailed_seconds

(* One request's own parts, in seconds; {!emit} reports per-request
   means in ms. [unattributed] is the request's time outside every
   measured part. *)
let add_request t ~decode ?(lease = 0.) ~report ~encode ~unattributed () =
  add t "_requests" 1.;
  add t "_decode" decode;
  add t "_lease" lease;
  add t "_report" report;
  add t "_encode" encode;
  add t "_unattributed" unattributed

(* Derived metrics and the residual lines, then every name in order. *)
let emit (m : Common.metrics) t =
  let r = Common.ratio in
  let per_request k = 1e3 *. r (get t k) (get t "_requests") in
  if get t "_requests" > 0. then begin
    set t "request.decode_ms" (per_request "_decode");
    set t "request.encode_ms" (per_request "_encode");
    set t "report.encode_ms" (per_request "_report");
    set t "cache.lease_ms" (per_request "_lease");
    set t "request.residual_ms" (per_request "_unattributed")
  end;
  let nodes = get t "branch_bound.nodes" in
  let pivots = get t "simplex.pivots" in
  set t "solve.residual_s"
    (get t "solve.s" -. get t "presolve.s" -. get t "cut_pool.s"
    -. get t "heuristics.s" -. get t "branch_bound.s");
  if get t "_mapper_runs" > 0. then begin
    set t "mapper.attempts" (r (get t "_attempts") (get t "_mapper_runs"));
    set t "ilp.residual_s"
      (get t "ilp.s" -. get t "formulation.build_s" -. get t "solve.s")
  end;
  set t "heuristics.incumbent_share"
    (r (get t "_heuristic_incumbents") (get t "_solves"));
  set t "branch_bound.node_lp_ms" (1e3 *. r (get t "_bb_lp_time") nodes);
  set t "branch_bound.node_overhead_ms"
    (1e3 *. r (get t "branch_bound.s" -. get t "_bb_lp_time") nodes);
  set t "simplex.pivots_per_node" (r pivots nodes);
  set t "simplex.pivots_per_s" (r pivots (get t "_lp_time"));
  set t "simplex.refactorizations_per_node" (r (get t "_refactorizations") nodes);
  set t "lu.sparse_share"
    (r (get t "_sparse") (get t "_sparse" +. get t "_dense"));
  List.iter (fun (name, unit) -> Common.add m name (get t name) unit) names
