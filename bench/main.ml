(* Evaluation harness: regenerates every table and figure of the paper
   plus ablations of this reproduction's design choices.

   Usage:
     bench/main.exe [EXPERIMENT...] [--full]

   With no experiment names, every experiment runs in a bounded "quick"
   configuration. --full raises the ILP time caps (the paper solved to
   optimality on a 248 MHz Ultra-30; the complete formulation on the
   largest points is exactly as painful as the paper says). *)

open Mm_util

let full_mode = ref false
let requested = ref []

let quick_cap () = if !full_mode then 900.0 else 60.0

let line fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

(* Every experiment that records results overwrites the one
   BENCH_lp.json with its buffer; [what] names it in the log line. *)
let write_bench_lp what buf =
  let oc = open_out "BENCH_lp.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  line "wrote BENCH_lp.json (%s)" what

let header title =
  line "";
  line "==============================================================";
  line "%s" title;
  line "=============================================================="

(* ------------------------------------------------------------------ *)
(* Table 1: FPGA on-chip RAM inventory                                 *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  header "Table 1: FPGA on-chip RAMs (regenerated from the device library)";
  let t =
    Table.create
      [
        ("Device", Table.Left);
        ("RAM name", Table.Left);
        ("RAMs (# banks)", Table.Center);
        ("Size (# bits)", Table.Right);
        ("Configurations", Table.Left);
      ]
  in
  List.iter
    (fun (e : Mm_arch.Devices.device_entry) ->
      Table.add_row t
        [
          e.Mm_arch.Devices.family;
          e.Mm_arch.Devices.ram_name;
          Printf.sprintf "%d - %d" e.Mm_arch.Devices.banks_min
            e.Mm_arch.Devices.banks_max;
          string_of_int e.Mm_arch.Devices.size_bits;
          String.concat " "
            (List.map Mm_arch.Config.to_string e.Mm_arch.Devices.config_list);
        ])
    Mm_arch.Devices.table1;
  Table.print t;
  line "Paper values: identical by construction (tested in test_arch)."

(* ------------------------------------------------------------------ *)
(* Fig. 2: the 55x17 worked example                                     *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  header "Fig. 2: space and port allocation for a 55x17 structure";
  let bank = Mm_arch.Devices.paper_example_bank () in
  let seg = Mm_design.Segment.make ~name:"ds" ~depth:55 ~width:17 () in
  let c = Mm_mapping.Preprocess.coeffs seg bank in
  line "Bank: 3 ports, configurations 128x1 / 64x2 / 32x4 / 16x8";
  line "alpha = %s, beta = %s"
    (Mm_arch.Config.to_string c.Mm_mapping.Preprocess.alpha)
    (match c.Mm_mapping.Preprocess.beta with
    | Some b -> Mm_arch.Config.to_string b
    | None -> "-");
  let t =
    Table.create
      [
        ("component", Table.Left);
        ("meaning", Table.Left);
        ("ports", Table.Right);
        ("paper", Table.Right);
      ]
  in
  Table.add_row t
    [ "FP"; "fully used instances (upper left)";
      string_of_int c.Mm_mapping.Preprocess.fp; "18" ];
  Table.add_row t
    [ "WP"; "width-remainder column (upper right)";
      string_of_int c.Mm_mapping.Preprocess.wp; "3" ];
  Table.add_row t
    [ "DP"; "depth-remainder row (lower left)";
      string_of_int c.Mm_mapping.Preprocess.dp; "4" ];
  Table.add_row t
    [ "WDP"; "corner instance (lower right)";
      string_of_int c.Mm_mapping.Preprocess.wdp; "1" ];
  Table.add_rule t;
  Table.add_row t
    [ "CP"; "total consumed ports"; string_of_int c.Mm_mapping.Preprocess.cp; "26" ];
  Table.print t;
  line "CW = %d (paper: 17), CD = %d (paper: 56), consumed bits = %d"
    c.Mm_mapping.Preprocess.cw c.Mm_mapping.Preprocess.cd
    (Mm_mapping.Preprocess.consumed_bits c);
  line "";
  line "Fragment decomposition (the detailed mapper's input):";
  let frags = Mm_mapping.Detailed.fragments_of ~segment:0 seg bank in
  let ft =
    Table.create
      [
        ("part", Table.Left);
        ("config", Table.Left);
        ("words", Table.Right);
        ("rounded", Table.Right);
        ("ports", Table.Right);
        ("count", Table.Right);
      ]
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (f : Mm_mapping.Detailed.fragment) ->
      let key =
        ( f.Mm_mapping.Detailed.part,
          f.Mm_mapping.Detailed.config,
          f.Mm_mapping.Detailed.words,
          f.Mm_mapping.Detailed.rounded_words,
          f.Mm_mapping.Detailed.ports_needed )
      in
      Hashtbl.replace groups key
        (1 + Option.value (Hashtbl.find_opt groups key) ~default:0))
    frags;
  let part_name = function
    | Mm_mapping.Detailed.Full -> "full"
    | Mm_mapping.Detailed.Width_strip -> "width strip"
    | Mm_mapping.Detailed.Depth_strip -> "depth strip"
    | Mm_mapping.Detailed.Corner -> "corner"
  in
  List.iter
    (fun ((part, config, words, rounded, ports), count) ->
      Table.add_row ft
        [
          part_name part;
          Mm_arch.Config.to_string config;
          string_of_int words;
          string_of_int rounded;
          string_of_int ports;
          string_of_int count;
        ])
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []));
  Table.print ft

(* ------------------------------------------------------------------ *)
(* Table 2: allocation options of a 3-port 16-word bank                *)
(* ------------------------------------------------------------------ *)

let run_table2 () =
  header "Table 2: allocation options, 3-port 16-word bank";
  let opts = Mm_mapping.Preprocess.allocation_options ~ports:3 ~depth:16 () in
  let t =
    Table.create
      [
        ("Port 1", Table.Right);
        ("Port 2", Table.Right);
        ("Port 3", Table.Right);
        ("consumed_ports() verdict", Table.Left);
      ]
  in
  List.iter
    (fun (alloc, accepted) ->
      match alloc with
      | [ a; b; c ] ->
          Table.add_row t
            [
              string_of_int a;
              string_of_int b;
              string_of_int c;
              (if accepted then "accepted" else "REJECTED (over-estimate)");
            ]
      | _ -> ())
    opts;
  Table.print t;
  let rejected = List.filter (fun (_, ok) -> not ok) opts in
  line "%d options, %d rejected by the Fig. 3 estimate." (List.length opts)
    (List.length rejected);
  line "The paper highlights the (8, 8, 0) rejection; with 2 ports the";
  line "estimate is exact and (8, 8) is accepted (tested in the suite)."

(* ------------------------------------------------------------------ *)
(* Table 3 + Fig. 4: complete vs global/detailed execution time        *)
(* ------------------------------------------------------------------ *)

(* Per-engine measurement of one design point: wall time plus the LP-core
   counters that BENCH_lp.json records. *)
type t3_cell = {
  seconds : float;
  optimal : bool;
  objective : float option;
  pivots : int;
  nodes : int;
  domains : int;
  stolen : int;
  idle : float;
  cuts_root : int;
  cuts_node : int;
  cuts_dropped : int;
  cuts_fams : (string * int) list;
  incumbent : string;
}

(* Traced re-run of the serial global leg: wall time with tracing
   enabled plus the per-phase span totals recovered from the trace.
   Paired with the untraced cell it is the A/B evidence that tracing
   is cheap when on and free when off. *)
type t3_traced = {
  traced_seconds : float;
  phases : (string * float) list;
  (* count-event totals (cut_pivots, cut_noop_round, flip, ...) *)
  counters : (string * int) list;
}

type t3_row = {
  point : Mm_workload.Table3.point;
  global : t3_cell;
  global_par : t3_cell;
  complete : t3_cell;
  (* root-cover-only re-runs (Solver.cover_only: no lifted covers,
     no GMI, no aging, no node cuts, no diving heuristic); paired with
     the full-pool cells above they form the cuts_ab record *)
  global_base : t3_cell;
  complete_base : t3_cell;
  traced : t3_traced;
}

(* Worker domains for the parallel leg of the sweep.  At least 2 so the
   work-stealing machinery is actually exercised even on one core. *)
let bench_parallelism = max 2 (Domain.recommended_domain_count ())

let failed_cell seconds =
  {
    seconds;
    optimal = false;
    objective = None;
    pivots = 0;
    nodes = 0;
    domains = 0;
    stolen = 0;
    idle = 0.0;
    cuts_root = 0;
    cuts_node = 0;
    cuts_dropped = 0;
    cuts_fams = [];
    incumbent = "none";
  }

let cell_of_outcome seconds (o : Mm_mapping.Mapper.outcome) =
  let r = o.Mm_mapping.Mapper.ilp_result in
  let mip = r.Mm_lp.Solver.mip in
  let par = r.Mm_lp.Solver.stats.Mm_lp.Solver.parallel in
  {
    seconds;
    optimal = mip.Mm_lp.Branch_bound.status = Mm_lp.Branch_bound.Optimal;
    objective = Some o.Mm_mapping.Mapper.objective;
    pivots = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots;
    nodes = mip.Mm_lp.Branch_bound.nodes;
    domains = par.Mm_lp.Branch_bound.domains_used;
    stolen = par.Mm_lp.Branch_bound.nodes_stolen;
    idle = par.Mm_lp.Branch_bound.idle_seconds;
    cuts_root = r.Mm_lp.Solver.stats.Mm_lp.Solver.cuts_added;
    cuts_node = r.Mm_lp.Solver.stats.Mm_lp.Solver.node_cuts_added;
    cuts_dropped = r.Mm_lp.Solver.stats.Mm_lp.Solver.cuts_dropped;
    cuts_fams = r.Mm_lp.Solver.stats.Mm_lp.Solver.cuts_by_family;
    incumbent =
      Mm_lp.Branch_bound.incumbent_source_to_string
        mip.Mm_lp.Branch_bound.incumbent_source;
  }

let table3_cache : t3_row list option ref = ref None

let measure_table3 () =
  match !table3_cache with
  | Some rows -> rows
  | None ->
      let cap = quick_cap () in
      let solver ?parallelism () =
        Mm_lp.Solver.options
          ~bb:(Mm_lp.Branch_bound.options ~time_limit:cap ?parallelism ())
          ()
      in
      let mapper solver_options =
        Mm_mapping.Mapper.options ~solver_options ()
      in
      let opts = mapper (solver ()) in
      (* identical budget under the pre-pool cut configuration: knapsack
         covers at the root only, no heuristics — the other arm of the
         cuts_ab record (the default legs run the full pool) *)
      let opts_base = mapper (Mm_lp.Solver.cover_only (solver ())) in
      (* same budget, [bench_parallelism] worker domains; the serial leg
         stays the recorded baseline *)
      let opts_par = mapper (solver ~parallelism:bench_parallelism ()) in
      let measure_global options board design =
        let t0 = Unix.gettimeofday () in
        match Mm_mapping.Mapper.run ~options board design with
        | Ok o ->
            cell_of_outcome
              (o.Mm_mapping.Mapper.ilp_seconds
              +. o.Mm_mapping.Mapper.detailed_seconds)
              o
        | Error _ ->
            (* budget exhausted before an incumbent: report the
               wall clock actually burned, flagged as capped *)
            failed_cell (Unix.gettimeofday () -. t0)
      in
      let rows =
        List.map
          (fun (point : Mm_workload.Table3.point) ->
            let spec = point.Mm_workload.Table3.spec in
            Printf.eprintf "table3: point %d segments / %d banks...\n%!"
              spec.Mm_workload.Gen.segments spec.Mm_workload.Gen.banks;
            let board, design = Mm_workload.Gen.instance spec in
            let global = measure_global opts board design in
            let global_par = measure_global opts_par board design in
            (match (global.objective, global_par.objective) with
            | Some a, Some b when Float.abs (a -. b) > 1e-6 ->
                Printf.eprintf
                  "table3: WARNING serial/parallel objective mismatch (%g vs %g)\n%!"
                  a b
            | _ -> ());
            let measure_complete options =
              let t0 = Unix.gettimeofday () in
              match
                Mm_mapping.Mapper.run ~method_:Mm_mapping.Mapper.Complete_flat
                  ~options board design
              with
              | Ok o -> cell_of_outcome o.Mm_mapping.Mapper.ilp_seconds o
              | Error _ -> failed_cell (Unix.gettimeofday () -. t0)
            in
            let complete = measure_complete opts in
            let global_base = measure_global opts_base board design in
            let complete_base = measure_complete opts_base in
            List.iter
              (fun (leg, full, base) ->
                match (full, base) with
                | Some a, Some b when Float.abs (a -. b) > 1e-6 ->
                    Printf.eprintf
                      "table3: WARNING %s full-pool/cover-only objective \
                       mismatch (%g vs %g)\n\
                       %!"
                      leg a b
                | _ -> ())
              [
                ("global", global.objective, global_base.objective);
                ("complete", complete.objective, complete_base.objective);
              ];
            let traced =
              let tr = Mm_obs.Trace.create () in
              let opts_tr =
                Mm_mapping.Mapper.options ~solver_options:(solver ()) ~trace:tr
                  ()
              in
              let t0 = Unix.gettimeofday () in
              (match Mm_mapping.Mapper.run ~options:opts_tr board design with
              | Ok _ | Error _ -> ());
              let traced_seconds = Unix.gettimeofday () -. t0 in
              let phases, counters =
                match Mm_obs.Summary.of_lines (Mm_obs.Trace.dump_lines tr) with
                | Ok events ->
                    let totals = Hashtbl.create 8 and order = ref [] in
                    List.iter
                      (fun (e : Mm_obs.Summary.event) ->
                        if e.Mm_obs.Summary.kind = "count" then begin
                          let name = e.Mm_obs.Summary.name in
                          if not (Hashtbl.mem totals name) then
                            order := name :: !order;
                          Hashtbl.replace totals name
                            ((try Hashtbl.find totals name with Not_found -> 0)
                            + e.Mm_obs.Summary.n)
                        end)
                      events;
                    ( Mm_obs.Summary.phase_totals events,
                      List.rev_map
                        (fun name -> (name, Hashtbl.find totals name))
                        !order )
                | Error _ -> ([], [])
              in
              { traced_seconds; phases; counters }
            in
            { point; global; global_par; complete; global_base; complete_base;
              traced })
          Mm_workload.Table3.points
      in
      table3_cache := Some rows;
      rows

(* Complete-flat ILP times of the dense-basis-inverse simplex this
   engine replaced (measured on this machine, 60 s cap, at the commit
   before the sparse LU core landed).  Kept as the reference point for
   the speedup record in BENCH_lp.json: the dense engine proved points
   0-6 only, found a non-optimal incumbent on point 7 and nothing at
   all on point 8. *)
let dense_baseline =
  [
    (0.112, true, Some 302649.0);
    (9.588, true, Some 458822.0);
    (9.874, true, Some 297826.0);
    (30.318, true, Some 810398.0);
    (5.530, true, Some 678153.0);
    (39.612, true, Some 752585.0);
    (10.583, true, Some 78985.0);
    (60.075, false, Some 568148.0);
    (61.433, false, None);
  ]

(* Cut-subsystem A/B record for one formulation: the root-cover-only
   configuration (Solver.cover_only, the pre-pool behavior) against
   the full pool — lifted covers, GMI, aging, node separation and the
   GUB diving heuristic.  The headline node reduction is null unless
   both arms proved optimality with matching objectives. *)
let cuts_pair ~baseline ~full =
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let opt_num = function Some v -> num v | None -> "null" in
  let leg c =
    let fams =
      String.concat ", "
        (List.map
           (fun (fam, n) -> Printf.sprintf "\"%s\": %d" fam n)
           c.cuts_fams)
    in
    Printf.sprintf
      "{ \"seconds\": %s, \"optimal\": %b, \"objective\": %s, \"pivots\": %d, \
       \"nodes\": %d, \"cuts\": { \"root\": %d, \"node\": %d, \"dropped\": %d, \
       \"by_family\": { %s } }, \"incumbent_source\": \"%s\" }"
      (num c.seconds) c.optimal (opt_num c.objective) c.pivots c.nodes
      c.cuts_root c.cuts_node c.cuts_dropped fams c.incumbent
  in
  let reduction =
    match (baseline.objective, full.objective) with
    | Some a, Some b
      when baseline.optimal && full.optimal
           && Float.abs (a -. b) <= 1e-6
           && baseline.nodes > 0 ->
        Printf.sprintf "%.2f"
          (100.0
          *. float_of_int (baseline.nodes - full.nodes)
          /. float_of_int baseline.nodes)
    | _ -> "null"
  in
  Printf.sprintf
    "{ \"cover_only\": %s, \"full_pool\": %s, \"node_reduction_pct\": %s }"
    (leg baseline) (leg full) reduction

(* Machine-readable record of the Table-3 sweep: per design point, wall
   time, status, objective, simplex pivots and branch-and-bound nodes for
   both engines.  NaN times (failed runs) become JSON null. *)
let write_bench_json rows =
  let buf = Buffer.create 4096 in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  let opt_num = function Some v -> num v | None -> "null" in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"benchmark\": \"table3 complete vs global/detailed\",\n");
  Buffer.add_string buf
    (Printf.sprintf "  \"mode\": \"%s\",\n" (if !full_mode then "full" else "quick"));
  Buffer.add_string buf
    (Printf.sprintf "  \"time_cap_seconds\": %.1f,\n" (quick_cap ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"parallelism\": %d,\n" bench_parallelism);
  Buffer.add_string buf "  \"points\": [\n";
  List.iteri
    (fun i r ->
      let spec = r.point.Mm_workload.Table3.spec in
      let cell c =
        Printf.sprintf
          "{ \"seconds\": %s, \"optimal\": %b, \"objective\": %s, \"pivots\": %d, \"nodes\": %d }"
          (num c.seconds) c.optimal (opt_num c.objective) c.pivots c.nodes
      in
      let par_cell c =
        Printf.sprintf
          "{ \"seconds\": %s, \"optimal\": %b, \"objective\": %s, \"pivots\": %d, \
           \"nodes\": %d, \"domains\": %d, \"nodes_stolen\": %d, \"idle_seconds\": %s }"
          (num c.seconds) c.optimal (opt_num c.objective) c.pivots c.nodes
          c.domains c.stolen (num c.idle)
      in
      let dense =
        match List.nth_opt dense_baseline i with
        | Some (seconds, optimal, objective) ->
            Printf.sprintf
              "{ \"seconds\": %s, \"optimal\": %b, \"objective\": %s }"
              (num seconds) optimal (opt_num objective)
        | None -> "null"
      in
      let traced =
        let phases =
          String.concat ", "
            (List.map
               (fun (name, s) -> Printf.sprintf "\"%s\": %.6f" name s)
               r.traced.phases)
        in
        let counters =
          String.concat ", "
            (List.map
               (fun (name, n) -> Printf.sprintf "\"%s\": %d" name n)
               r.traced.counters)
        in
        Printf.sprintf
          "{ \"seconds\": %s, \"phases\": { %s }, \"counters\": { %s } }"
          (num r.traced.traced_seconds) phases counters
      in
      let cuts_ab =
        Printf.sprintf
          "{ \"complete\": %s, \"global\": %s }"
          (cuts_pair ~baseline:r.complete_base ~full:r.complete)
          (cuts_pair ~baseline:r.global_base ~full:r.global)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"segments\": %d, \"banks\": %d, \"ports\": %d, \"configs\": %d,\n\
           \      \"complete\": %s,\n\
           \      \"global\": %s,\n\
           \      \"global_parallel\": %s,\n\
           \      \"global_traced\": %s,\n\
           \      \"cuts_ab\": %s,\n\
           \      \"complete_dense_baseline_60s\": %s }%s\n"
           spec.Mm_workload.Gen.segments spec.Mm_workload.Gen.banks
           spec.Mm_workload.Gen.ports spec.Mm_workload.Gen.configs
           (cell r.complete) (cell r.global) (par_cell r.global_par) traced
           cuts_ab dense
           (if i < List.length rows - 1 then "," else ""))
    )
    rows;
  Buffer.add_string buf "  ],\n";
  (* A/B overhead cell: the untraced leg runs with tracing disabled (the
     no-op sink), the traced leg with a live trace; their totals bound
     the cost of both paths. *)
  let untraced_total =
    List.fold_left
      (fun acc r ->
        if Float.is_nan r.global.seconds then acc else acc +. r.global.seconds)
      0.0 rows
  and traced_total =
    List.fold_left (fun acc r -> acc +. r.traced.traced_seconds) 0.0 rows
  in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"trace_ab\": { \"untraced_global_seconds\": %s, \
        \"traced_global_seconds\": %s, \"overhead_pct\": %s }\n"
       (num untraced_total) (num traced_total)
       (if untraced_total > 0.0 then
          Printf.sprintf "%.2f"
            (100.0 *. (traced_total -. untraced_total) /. untraced_total)
        else "null"));
  Buffer.add_string buf "}\n";
  write_bench_lp (Printf.sprintf "%d points" (List.length rows)) buf

let fmt_time seconds optimal =
  if Float.is_nan seconds then "failed"
  else if optimal then Printf.sprintf "%.2f" seconds
  else Printf.sprintf "%.2f*" seconds

let run_table3 () =
  header "Table 3: ILP execution times, complete vs global/detailed";
  line "(measured on this machine; paper: CPLEX on a 248 MHz Sun Ultra-30.";
  line " '*' marks a run that hit the %.0f s cap before proving optimality;" (quick_cap ());
  line " absolute values differ, the complete-vs-global shape is the claim)";
  let rows = measure_table3 () in
  let t =
    Table.create
      [
        ("#segs", Table.Right);
        ("#banks", Table.Right);
        ("#ports", Table.Right);
        ("#configs", Table.Right);
        ("complete (s)", Table.Right);
        ("global (s)", Table.Right);
        (Printf.sprintf "global -j%d (s)" bench_parallelism, Table.Right);
        ("ratio", Table.Right);
        ("paper complete", Table.Right);
        ("paper global", Table.Right);
        ("paper ratio", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let spec = r.point.Mm_workload.Table3.spec in
      let pc = r.point.Mm_workload.Table3.paper_complete_seconds in
      let pg = r.point.Mm_workload.Table3.paper_global_seconds in
      Table.add_row t
        [
          string_of_int spec.Mm_workload.Gen.segments;
          string_of_int spec.Mm_workload.Gen.banks;
          string_of_int spec.Mm_workload.Gen.ports;
          string_of_int spec.Mm_workload.Gen.configs;
          fmt_time r.complete.seconds r.complete.optimal;
          fmt_time r.global.seconds r.global.optimal;
          fmt_time r.global_par.seconds r.global_par.optimal;
          (if Float.is_nan r.complete.seconds || Float.is_nan r.global.seconds
           then "-"
           else Printf.sprintf "%.1fx" (r.complete.seconds /. Float.max r.global.seconds 1e-6));
          Printf.sprintf "%.1f" pc;
          Printf.sprintf "%.1f" pg;
          Printf.sprintf "%.1fx" (pc /. pg);
        ])
    rows;
  Table.print t;
  line "";
  line "Cuts A/B, complete formulation (cover-only root vs full pool +";
  line "node cuts + GUB diving; same budget, serial):";
  let ct =
    Table.create
      [
        ("#segs", Table.Right);
        ("cover-only nodes", Table.Right);
        ("full-pool nodes", Table.Right);
        ("reduction", Table.Right);
        ("cuts (root/node/drop)", Table.Right);
        ("incumbent", Table.Left);
      ]
  in
  List.iter
    (fun r ->
      let base = r.complete_base and full = r.complete in
      let reduction =
        if base.optimal && full.optimal && base.nodes > 0 then
          Printf.sprintf "%.0f%%"
            (100.0
            *. float_of_int (base.nodes - full.nodes)
            /. float_of_int base.nodes)
        else "-"
      in
      Table.add_row ct
        [
          string_of_int r.point.Mm_workload.Table3.spec.Mm_workload.Gen.segments;
          string_of_int base.nodes;
          string_of_int full.nodes;
          reduction;
          Printf.sprintf "%d/%d/%d" full.cuts_root full.cuts_node
            full.cuts_dropped;
          full.incumbent;
        ])
    rows;
  Table.print ct;
  line "";
  write_bench_json rows

let run_fig4 () =
  header "Fig. 4: complete versus global/detailed execution times";
  let rows = measure_table3 () in
  let series label glyph f =
    {
      Ascii_plot.label;
      glyph;
      points =
        List.filteri (fun _ r -> not (Float.is_nan (f r))) rows
        |> List.mapi (fun i r -> (float_of_int i, f r));
    }
  in
  print_string
    (Ascii_plot.render ~x_label:"design point (increasing size)"
       ~y_label:"execution time (s), this machine"
       [
         series "Complete approach" '#' (fun r -> r.complete.seconds);
         series "Global/Detailed approach" 'o' (fun r -> r.global.seconds);
       ]);
  line "";
  print_string
    (Ascii_plot.render ~x_label:"design point (increasing size)"
       ~y_label:"execution time (s), paper (CPLEX, Ultra-30)"
       [
         series "Complete approach" '#' (fun r ->
             r.point.Mm_workload.Table3.paper_complete_seconds);
         series "Global/Detailed approach" 'o' (fun r ->
             r.point.Mm_workload.Table3.paper_global_seconds);
       ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let run_ablation_link () =
  header "Ablation: aggregated vs disaggregated linking in the complete model";
  line "(X <= Z per variable tightens the LP but multiplies the row count)";
  let t =
    Table.create
      [
        ("point", Table.Left);
        ("linking", Table.Left);
        ("rows", Table.Right);
        ("time (s)", Table.Right);
        ("nodes", Table.Right);
      ]
  in
  let cap = if !full_mode then 300.0 else 30.0 in
  let opts =
    Mm_lp.Solver.options ~bb:(Mm_lp.Branch_bound.options ~time_limit:cap ()) ()
  in
  List.iteri
    (fun i (point : Mm_workload.Table3.point) ->
      if i < 2 then begin
        let board, design = Mm_workload.Gen.instance point.Mm_workload.Table3.spec in
        List.iter
          (fun disagg ->
            match
              Mm_mapping.Complete_ilp.build ~disaggregated_linking:disagg board
                design
            with
            | Error _ -> ()
            | Ok b ->
                let t0 = Unix.gettimeofday () in
                let r = Mm_lp.Solver.solve ~options:opts b.Mm_mapping.Complete_ilp.problem in
                Table.add_row t
                  [
                    Printf.sprintf "%d segs"
                      point.Mm_workload.Table3.spec.Mm_workload.Gen.segments;
                    (if disagg then "disaggregated" else "aggregated");
                    string_of_int b.Mm_mapping.Complete_ilp.problem.Mm_lp.Problem.nrows;
                    Printf.sprintf "%.2f" (Unix.gettimeofday () -. t0);
                    string_of_int r.Mm_lp.Solver.mip.Mm_lp.Branch_bound.nodes;
                  ])
          [ false; true ]
      end)
    Mm_workload.Table3.points;
  Table.print t

let run_ablation_detailed () =
  header "Ablation: greedy FFD vs ILP detailed mapper";
  let point = List.nth Mm_workload.Table3.points 1 in
  let board, design = Mm_workload.Gen.instance point.Mm_workload.Table3.spec in
  match Mm_mapping.Global_ilp.solve board design with
  | Error _ -> line "global solve failed"
  | Ok (assignment, _) ->
      let t =
        Table.create
          [
            ("engine", Table.Left);
            ("time (s)", Table.Right);
            ("instances used", Table.Right);
            ("fragments", Table.Right);
            ("legal", Table.Left);
          ]
      in
      let report name result seconds =
        match result with
        | Error (f : Mm_mapping.Detailed.failure) ->
            Table.add_row t [ name; Printf.sprintf "%.3f" seconds; "-"; "-";
                              "FAILED: " ^ f.Mm_mapping.Detailed.reason ]
        | Ok mapping ->
            Table.add_row t
              [
                name;
                Printf.sprintf "%.3f" seconds;
                string_of_int
                  (Ints.sum_by snd (Mm_mapping.Detailed.instances_used mapping));
                string_of_int (List.length mapping.Mm_mapping.Detailed.placements);
                string_of_bool (Mm_mapping.Validate.is_legal board design mapping);
              ]
      in
      let t0 = Unix.gettimeofday () in
      let greedy = Mm_mapping.Detailed.run board design assignment in
      let t1 = Unix.gettimeofday () in
      report "greedy FFD" greedy (t1 -. t0);
      let t2 = Unix.gettimeofday () in
      let ilp = Mm_mapping.Detailed_ilp.run board design assignment in
      let t3 = Unix.gettimeofday () in
      report "ILP (min instances)" ilp (t3 -. t2);
      Table.print t

let run_ablation_weights () =
  header "Ablation: objective weight sweep (latency vs pin terms)";
  (* On-chip RAM wins on every cost axis at once, so weights only matter
     when off-chip choices are in tension. This board has scarce on-chip
     RAM plus two off-chip families pulling in opposite directions: a
     fast pipeline RAM far from the FPGA and a slow RAM right next to
     it. *)
  let board =
    Mm_arch.Board.make ~name:"sweep-board"
      [
        Mm_arch.Devices.virtex_blockram ~instances:2 ();
        Mm_arch.Bank_type.make ~name:"fast-far" ~instances:4 ~ports:1
          ~configs:[ Mm_arch.Config.make ~depth:131072 ~width:32 ]
          ~read_latency:1 ~write_latency:1 ~pins_traversed:6;
        Mm_arch.Bank_type.make ~name:"slow-near" ~instances:4 ~ports:1
          ~configs:[ Mm_arch.Config.make ~depth:131072 ~width:32 ]
          ~read_latency:4 ~write_latency:5 ~pins_traversed:2;
      ]
  in
  let design =
    let seg name depth width reads writes =
      Mm_design.Segment.make ~reads ~writes ~name ~depth ~width ()
    in
    Mm_design.Design.make ~name:"sweep"
      [
        seg "coeffs" 256 16 40960 256;
        seg "line0" 720 8 1440 1440;
        seg "line1" 720 8 1440 1440;
        seg "window" 64 8 8192 4096;
        seg "hist" 256 16 2048 2048;
        seg "frame" 76800 8 76800 76800;
        seg "lut" 1024 8 20480 1024;
        seg "scratch" 2048 16 4096 4096;
        seg "fifo" 512 32 1024 1024;
        seg "taps" 128 16 16384 128;
      ]
  in
  let t =
    Table.create
      [
        ("weights (lat, pin-delay, pin-io)", Table.Left);
        ("on-chip segments", Table.Right);
        ("off-chip segments", Table.Right);
        ("latency cost", Table.Right);
        ("pin cost", Table.Right);
      ]
  in
  let sweep =
    [
      ("1, 1, 1", Mm_mapping.Cost.default_weights);
      ("1, 0, 0", Mm_mapping.Cost.latency_only);
      ("0, 1, 1", Mm_mapping.Cost.pins_only);
      ("10, 1, 1", { Mm_mapping.Cost.latency = 10.0; pin_delay = 1.0; pin_io = 1.0 });
      ("1, 10, 10", { Mm_mapping.Cost.latency = 1.0; pin_delay = 10.0; pin_io = 10.0 });
    ]
  in
  List.iter
    (fun (label, weights) ->
      match Mm_mapping.Global_ilp.solve ~weights board design with
      | Error _ -> Table.add_row t [ label; "-"; "-"; "-"; "-" ]
      | Ok (a, _) ->
          let onchip = ref 0 and offchip = ref 0 in
          let lat = ref 0.0 and pin = ref 0.0 in
          Array.iteri
            (fun d ti ->
              let bt = Mm_arch.Board.bank_type board ti in
              let seg = Mm_design.Design.segment design d in
              if Mm_arch.Bank_type.is_on_chip bt then incr onchip else incr offchip;
              lat := !lat +. Mm_mapping.Cost.latency_cost Mm_mapping.Cost.Uniform seg bt;
              pin :=
                !pin
                +. Mm_mapping.Cost.pin_delay_cost Mm_mapping.Cost.Uniform seg bt
                +. Mm_mapping.Cost.pin_io_cost
                     (Mm_mapping.Preprocess.coeffs seg bt)
                     seg bt)
            a;
          Table.add_row t
            [
              label;
              string_of_int !onchip;
              string_of_int !offchip;
              Printf.sprintf "%.0f" !lat;
              Printf.sprintf "%.0f" !pin;
            ])
    sweep;
  Table.print t;
  line "On-chip RAM is best on every axis and fills up first regardless of";
  line "weights; the interesting shift is off chip: latency-weighted runs";
  line "choose the fast-but-far banks, pin-weighted runs the slow-but-near";
  line "ones, trading roughly 4x latency against roughly 3x pin cost."

let run_ablation_overlap () =
  header "Ablation: lifetime-aware capacity (overlap) vs conservative";
  let point = List.nth Mm_workload.Table3.points 1 in
  let board, design = Mm_workload.Gen.instance point.Mm_workload.Table3.spec in
  let cliques = Mm_mapping.Global_ilp.capacity_cliques design in
  line "Design: %d segments, %d conflict pairs, %d capacity cliques"
    (Mm_design.Design.num_segments design)
    (Mm_design.Conflict.num_pairs design.Mm_design.Design.conflicts)
    (List.length cliques);
  line "Max simultaneous live bits: %d of %d total (%.0f%%)"
    (Mm_design.Design.max_live_bits design)
    (Mm_design.Design.total_bits design)
    (100.0
    *. float_of_int (Mm_design.Design.max_live_bits design)
    /. float_of_int (Mm_design.Design.total_bits design));
  (match Mm_mapping.Mapper.run board design with
  | Ok o ->
      let shared =
        List.length
          (List.filter
             (fun (p : Mm_mapping.Detailed.placement) -> p.Mm_mapping.Detailed.shared)
             o.Mm_mapping.Mapper.mapping.Mm_mapping.Detailed.placements)
      in
      line "Overlap-aware detailed mapping: %d shared placements" shared
  | Error e -> line "mapping failed: %s" (Mm_mapping.Mapper.error_to_string e));
  line "";
  line "Note (measured property of the Fig. 3 model): a fragment's port";
  line "charge is at least its capacity fraction times the port count, so";
  line "the port budget always dominates the storage budget. Overlap";
  line "shares bits and reduces pressure, but cannot make an otherwise";
  line "port-infeasible assignment feasible; the paper's future-work note";
  line "on arbitration (port sharing) is what would change that."


let run_ablation_portmodel () =
  header "Ablation: Fig. 3 vs improved consumed_ports (Section 6 future work)";
  (* Table 2 acceptance under both models *)
  let count model =
    let opts = Mm_mapping.Preprocess.allocation_options ~model ~ports:3 ~depth:16 () in
    List.length (List.filter (fun (_, ok) -> not ok) opts)
  in
  line "3-port 16-word bank, 32 allocation options:";
  line "  Fig. 3 estimate rejects %d options (incl. the paper's (8,8,0))"
    (count Mm_mapping.Preprocess.Fig3);
  line "  improved estimate rejects %d options" (count Mm_mapping.Preprocess.Improved);
  (* port utilization on a 3-port workload *)
  let bank =
    Mm_arch.Bank_type.make ~name:"tri" ~instances:6 ~ports:3
      ~configs:
        [
          Mm_arch.Config.make ~depth:128 ~width:1;
          Mm_arch.Config.make ~depth:64 ~width:2;
          Mm_arch.Config.make ~depth:32 ~width:4;
          Mm_arch.Config.make ~depth:16 ~width:8;
        ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board =
    Mm_arch.Board.make ~name:"tri-board"
      [ bank; Mm_arch.Devices.offchip_sram ~instances:6 ~depth:16384 ~width:8 () ]
  in
  let rng = Prng.create 97 in
  let design =
    Mm_design.Design.make ~name:"halves"
      (List.init 12 (fun i ->
           Mm_design.Segment.make
             ~name:(Printf.sprintf "h%d" i)
             ~depth:(Prng.pick rng [ 8; 8; 16 ])
             ~width:8 ()))
  in
  let t =
    Table.create
      [
        ("port model", Table.Left);
        ("objective", Table.Right);
        ("segments on 3-port bank", Table.Right);
        ("legal", Table.Left);
      ]
  in
  List.iter
    (fun (label, port_model) ->
      let options = Mm_mapping.Mapper.options ~port_model ~max_retries:25 () in
      match Mm_mapping.Mapper.run ~options board design with
      | Error e ->
          Table.add_row t
            [ label; "-"; "-"; Mm_mapping.Mapper.error_to_string e ]
      | Ok o ->
          let onbank =
            Array.fold_left
              (fun acc ti -> if ti = 0 then acc + 1 else acc)
              0 o.Mm_mapping.Mapper.assignment
          in
          Table.add_row t
            [
              label;
              Printf.sprintf "%.0f" o.Mm_mapping.Mapper.objective;
              string_of_int onbank;
              string_of_bool
                (Mm_mapping.Validate.is_legal ~port_model board design
                   o.Mm_mapping.Mapper.mapping);
            ])
    [
      ("Fig. 3 (paper)", Mm_mapping.Preprocess.Fig3);
      ("improved", Mm_mapping.Preprocess.Improved);
    ];
  Table.print t;
  line "Fig. 3 charges each half-bank fragment 2 of the 3 ports, so the";
  line "global port budget (18) admits 9 of them although only one fits";
  line "per instance (6 total) - the global/detailed retry loop fires on";
  line "every such assignment, the over-estimation the paper's Section 6";
  line "wants fixed. The improved estimate charges 1 port per half-bank";
  line "and maps cleanly.";
  (* also show the retry behaviour explicitly *)
  (match
     Mm_mapping.Mapper.run
       ~options:(Mm_mapping.Mapper.options ~max_retries:25 ())
       board design
   with
  | Ok o -> line "Fig. 3 eventually succeeded after %d retries." o.Mm_mapping.Mapper.retries
  | Error (Mm_mapping.Mapper.Retries_exhausted n) ->
      line "Fig. 3 retry loop exhausted after %d global/detailed iterations." n
  | Error e -> line "Fig. 3: %s" (Mm_mapping.Mapper.error_to_string e))

let run_ablation_arbitration () =
  header "Ablation: arbitration extension (port sharing, Section 6)";
  (* phased workload: groups of segments alive in different phases *)
  let bank =
    Mm_arch.Bank_type.make ~name:"dp" ~instances:4 ~ports:2
      ~configs:[ Mm_arch.Config.make ~depth:256 ~width:16 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board =
    Mm_arch.Board.make ~name:"arb-board"
      [ bank; Mm_arch.Devices.offchip_sram ~instances:8 ~depth:65536 ~width:16 () ]
  in
  let phases = 3 and per_phase = 4 in
  let segs =
    List.concat_map
      (fun ph ->
        List.init per_phase (fun i ->
            Mm_design.Segment.make
              ~name:(Printf.sprintf "p%d_s%d" ph i)
              ~depth:256 ~width:16 ()))
      (Ints.range phases)
  in
  let ivals =
    Array.of_list
      (List.concat_map
         (fun ph ->
           List.init per_phase (fun _ ->
               { Mm_design.Lifetime.birth = ph * 10; death = (ph * 10) + 8 }))
         (Ints.range phases))
  in
  let design =
    Mm_design.Design.make
      ~lifetimes:(Mm_design.Lifetime.make ivals)
      ~name:"phased" segs
  in
  let t =
    Table.create
      [
        ("model", Table.Left);
        ("objective", Table.Right);
        ("on-chip segments", Table.Right);
        ("legal", Table.Left);
      ]
  in
  List.iter
    (fun (label, arbitration) ->
      let options = Mm_mapping.Mapper.options ~arbitration () in
      match Mm_mapping.Mapper.run ~options board design with
      | Error e -> Table.add_row t [ label; "-"; "-"; Mm_mapping.Mapper.error_to_string e ]
      | Ok o ->
          let onchip =
            Array.fold_left (fun acc ti -> if ti = 0 then acc + 1 else acc) 0
              o.Mm_mapping.Mapper.assignment
          in
          Table.add_row t
            [
              label;
              Printf.sprintf "%.0f" o.Mm_mapping.Mapper.objective;
              Printf.sprintf "%d/%d" onchip (phases * per_phase);
              string_of_bool
                (Mm_mapping.Validate.is_legal ~arbitration board design
                   o.Mm_mapping.Mapper.mapping);
            ])
    [ ("no arbitration (paper)", false); ("arbitration (future work)", true) ];
  Table.print t;
  line "With arbitration, the 8 on-chip ports are time-shared by the three";
  line "phases (12 segments of one bank each), so everything stays on chip;";
  line "the paper's model must spill entire phases to off-chip SRAM."

(* ------------------------------------------------------------------ *)
(* Cuts smoke (CI leg)                                                  *)
(* ------------------------------------------------------------------ *)

(* The smallest Table-3 point under the full cut pool + GUB diving
   heuristic versus the root-cover-only baseline, recorded as a minimal
   BENCH_lp.json. Exits nonzero when the two configurations prove
   different objectives — the CI guard for cut validity (an invalid cut
   shows up as a changed optimum). Not part of the default experiment
   set (it would overwrite the full sweep's BENCH_lp.json); run it by
   name. *)
let run_cuts_smoke () =
  header "Cuts smoke: Table-3 point 0, cover-only baseline vs full pool";
  let point = List.hd Mm_workload.Table3.points in
  let spec = point.Mm_workload.Table3.spec in
  let board, design = Mm_workload.Gen.instance spec in
  let cap = quick_cap () in
  let measure method_ solver_options =
    let opts = Mm_mapping.Mapper.options ~solver_options () in
    let t0 = Unix.gettimeofday () in
    match Mm_mapping.Mapper.run ~method_ ~options:opts board design with
    | Ok o ->
        cell_of_outcome
          (o.Mm_mapping.Mapper.ilp_seconds
          +. o.Mm_mapping.Mapper.detailed_seconds)
          o
    | Error _ -> failed_cell (Unix.gettimeofday () -. t0)
  in
  let full =
    Mm_lp.Solver.options ~bb:(Mm_lp.Branch_bound.options ~time_limit:cap ()) ()
  in
  let results =
    List.map
      (fun (name, m) ->
        (name, measure m (Mm_lp.Solver.cover_only full), measure m full))
      [
        ("global", Mm_mapping.Mapper.Global_detailed);
        ("complete", Mm_mapping.Mapper.Complete_flat);
      ]
  in
  let t =
    Table.create
      [
        ("formulation", Table.Left);
        ("cuts", Table.Left);
        ("time (s)", Table.Right);
        ("nodes", Table.Right);
        ("cuts (root/node/drop)", Table.Right);
        ("incumbent", Table.Left);
        ("objective", Table.Right);
      ]
  in
  List.iter
    (fun (name, base, full) ->
      List.iter
        (fun (cn, (c : t3_cell)) ->
          Table.add_row t
            [
              name;
              cn;
              fmt_time c.seconds c.optimal;
              string_of_int c.nodes;
              Printf.sprintf "%d/%d/%d" c.cuts_root c.cuts_node c.cuts_dropped;
              c.incumbent;
              (match c.objective with
              | Some o -> Printf.sprintf "%.0f" o
              | None -> "-");
            ])
        [ ("cover-only", base); ("full pool", full) ])
    results;
  Table.print t;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"benchmark\": \"cuts smoke (table3 point 0)\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"time_cap_seconds\": %.1f,\n" cap);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"segments\": %d, \"banks\": %d, \"ports\": %d, \"configs\": %d,\n"
       spec.Mm_workload.Gen.segments spec.Mm_workload.Gen.banks
       spec.Mm_workload.Gen.ports spec.Mm_workload.Gen.configs);
  Buffer.add_string buf "  \"cuts_ab\": {\n";
  List.iteri
    (fun i (name, base, full) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %s%s\n" name
           (cuts_pair ~baseline:base ~full)
           (if i < List.length results - 1 then "," else "")))
    results;
  Buffer.add_string buf "  }\n}\n";
  write_bench_lp "cuts smoke" buf;
  let mismatched =
    List.filter
      (fun ((_, base, full) : string * t3_cell * t3_cell) ->
        match (base.objective, full.objective) with
        | Some a, Some b -> Float.abs (a -. b) > 1e-6
        | _ -> true)
      results
  in
  if mismatched <> [] then begin
    List.iter
      (fun ((name, base, full) : string * t3_cell * t3_cell) ->
        let obj = function
          | Some o -> Printf.sprintf "%g" o
          | None -> "none"
        in
        Printf.eprintf
          "cuts-smoke: %s objective mismatch: cover-only %s vs full pool %s\n"
          name (obj base.objective) (obj full.objective))
      mismatched;
    exit 1
  end
  else line "cover-only and full-pool configurations agree on every objective."

(* ------------------------------------------------------------------ *)
(* Serve smoke (CI leg)                                                 *)
(* ------------------------------------------------------------------ *)

(* The mapping service's warm-start A/B: repeat the smallest Table-3
   point through [Mm_service.Engine] — the exact path [mmap serve]
   workers run — and compare the cold first solve against the
   cache-warmed repeats. Recorded as the serve_warm_ab cell of a
   minimal BENCH_lp.json. Exits nonzero when a repeat misses the cache
   or warm and cold objectives disagree (a warm start must accelerate
   the search, never change the optimum). *)
let run_serve_smoke () =
  header "Serve smoke: warm-vs-cold through the service engine";
  let point = List.hd Mm_workload.Table3.points in
  let spec = point.Mm_workload.Table3.spec in
  let board, design = Mm_workload.Gen.instance spec in
  let cap = quick_cap () in
  let knobs = Mm_service.Knobs.make ~time_limit:cap () in
  let engine = Mm_service.Engine.create () in
  let req = Mm_service.Request.make ~id:"bench" ~knobs board design in
  let repeats = 4 in
  let shots =
    List.init repeats (fun i ->
        let t0 = Unix.gettimeofday () in
        match Mm_service.Engine.handle engine req with
        | Mm_service.Request.Ok_response { cache_hit; warm_solves; report; _ }
          ->
            let seconds = Unix.gettimeofday () -. t0 in
            let num path obj =
              Option.bind (Mm_obs.Json.member path obj) Mm_obs.Json.to_float
            in
            let objective = num "objective" report in
            let pivots =
              match Option.bind (Mm_obs.Json.member "lp" report) (num "pivots")
              with
              | Some p -> int_of_float p
              | None -> 0
            in
            (i, seconds, cache_hit, warm_solves, objective, pivots)
        | Mm_service.Request.Error_response { message; _ } ->
            Printf.eprintf "serve-smoke: request %d failed: %s\n" i message;
            exit 1)
  in
  let t =
    Table.create
      [
        ("request", Table.Right);
        ("cache", Table.Left);
        ("warm solves", Table.Right);
        ("time (s)", Table.Right);
        ("pivots", Table.Right);
        ("objective", Table.Right);
      ]
  in
  List.iter
    (fun (i, seconds, hit, solves, objective, pivots) ->
      Table.add_row t
        [
          string_of_int i;
          (if hit then "hit" else "miss");
          string_of_int solves;
          Printf.sprintf "%.3f" seconds;
          string_of_int pivots;
          (match objective with
          | Some o -> Printf.sprintf "%.0f" o
          | None -> "-");
        ])
    shots;
  Table.print t;
  let cold = List.hd shots in
  let warm = List.filteri (fun i _ -> i > 0) shots in
  let mean f xs =
    List.fold_left (fun a x -> a +. f x) 0.0 xs /. float_of_int (List.length xs)
  in
  let sec (_, s, _, _, _, _) = s in
  let piv (_, _, _, _, _, p) = float_of_int p in
  let obj (_, _, _, _, o, _) = o in
  let _, cold_s, _, _, cold_obj, cold_piv = cold in
  let warm_s = mean sec warm in
  let warm_piv = mean piv warm in
  let reduction =
    if cold_piv > 0 then
      100.0 *. (float_of_int cold_piv -. warm_piv) /. float_of_int cold_piv
    else 0.0
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "{\n  \"benchmark\": \"serve smoke (table3 point 0)\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"time_cap_seconds\": %.1f,\n" cap);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"segments\": %d, \"banks\": %d, \"ports\": %d, \"configs\": %d,\n"
       spec.Mm_workload.Gen.segments spec.Mm_workload.Gen.banks
       spec.Mm_workload.Gen.ports spec.Mm_workload.Gen.configs);
  let opt_num = function
    | Some v -> Printf.sprintf "%.3f" v
    | None -> "null"
  in
  Buffer.add_string buf "  \"serve_warm_ab\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"cold\": { \"seconds\": %.3f, \"pivots\": %d, \"objective\": %s \
        },\n"
       cold_s cold_piv (opt_num cold_obj));
  Buffer.add_string buf
    (Printf.sprintf
       "    \"warm\": { \"repeats\": %d, \"mean_seconds\": %.3f, \
        \"mean_pivots\": %.1f, \"objective\": %s },\n"
       (List.length warm) warm_s warm_piv
       (opt_num (obj (List.hd warm))));
  Buffer.add_string buf
    (Printf.sprintf "    \"pivot_reduction_percent\": %.2f\n" reduction);
  Buffer.add_string buf "  }\n}\n";
  write_bench_lp "serve smoke" buf;
  let misses =
    List.filter (fun (i, _, hit, _, _, _) -> i > 0 && not hit) shots
  in
  let mismatched =
    List.filter
      (fun shot ->
        match (cold_obj, obj shot) with
        | Some a, Some b -> Float.abs (a -. b) > 1e-6
        | _ -> true)
      warm
  in
  if misses <> [] then begin
    List.iter
      (fun (i, _, _, _, _, _) ->
        Printf.eprintf "serve-smoke: repeat request %d missed the warm cache\n"
          i)
      misses;
    exit 1
  end;
  if mismatched <> [] then begin
    List.iter
      (fun shot ->
        Printf.eprintf "serve-smoke: warm objective %s differs from cold %s\n"
          (opt_num (obj shot)) (opt_num cold_obj))
      mismatched;
    exit 1
  end;
  line "every repeat hit the warm cache at the cold objective (pivots %.2f%%)."
    reduction

(* ------------------------------------------------------------------ *)
(* Scaling (CI leg)                                                    *)
(* ------------------------------------------------------------------ *)

(* Stress the generator and the LP core well past the paper's Table-3
   envelope (132 segments / 180 banks / 265 ports / 375 configs at its
   largest): each [Gen.scale_tier] instance is generated, frozen into
   the global ILP and solved under a per-tier wall-clock cap, and the
   resulting nodes/pivots/seconds curve is recorded as the scaling cell
   of a minimal BENCH_lp.json. Run-by-name (CI's scaling leg).

   Regression thresholds, all deliberately loose — they catch
   complexity-class regressions (an accidentally quadratic generator,
   a simplex that stops making progress), not machine noise:
   - generating + building a tier's model must fit its model budget;
   - every capped solve must make branching progress (the root
     relaxation finished and the tree search processed nodes; proving
     optimality on the big tiers is a --full luxury);
   - simplex throughput must not collapse below a pivots/second
     floor. *)
let run_scaling () =
  header "Scaling: generator + LP core beyond the Table-3 envelope";
  let cap = quick_cap () in
  let tiers =
    if !full_mode then Mm_workload.Gen.scale_tiers
    else List.filteri (fun i _ -> i < 3) Mm_workload.Gen.scale_tiers
  in
  let shots =
    List.map
      (fun (tier : Mm_workload.Gen.tier) ->
        let t0 = Unix.gettimeofday () in
        let board, design = Mm_workload.Gen.tier_instance tier in
        match Mm_mapping.Global_ilp.build board design with
        | Error e ->
            Printf.eprintf "scaling: %s failed to build: %s\n"
              tier.Mm_workload.Gen.tier_name e;
            exit 1
        | Ok b ->
            let p = b.Mm_mapping.Global_ilp.problem in
            let model_seconds = Unix.gettimeofday () -. t0 in
            let options =
              Mm_lp.Solver.options
                ~bb:
                  (Mm_lp.Branch_bound.options ~time_limit:cap
                     ~parallelism:bench_parallelism ())
                ()
            in
            let r = Mm_lp.Solver.solve ~options p in
            (tier, p, model_seconds, r, r.Mm_lp.Solver.mip))
      tiers
  in
  let pivots_per_second (r : Mm_lp.Solver.result) =
    let lp_time = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp_time in
    let pivots = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots in
    if lp_time > 0.0 then float_of_int pivots /. lp_time else 0.0
  in
  let status_name (mip : Mm_lp.Branch_bound.result) =
    match mip.Mm_lp.Branch_bound.status with
    | Mm_lp.Branch_bound.Optimal -> "optimal"
    | Mm_lp.Branch_bound.Feasible -> "feasible"
    | Mm_lp.Branch_bound.Infeasible -> "infeasible"
    | Mm_lp.Branch_bound.Unbounded -> "unbounded"
    | Mm_lp.Branch_bound.Unknown -> "unknown"
  in
  let t =
    Table.create
      [
        ("tier", Table.Left);
        ("segs", Table.Right);
        ("banks", Table.Right);
        ("vars", Table.Right);
        ("rows", Table.Right);
        ("model (s)", Table.Right);
        ("solve (s)", Table.Right);
        ("nodes", Table.Right);
        ("pivots", Table.Right);
        ("pivots/s", Table.Right);
        ("status", Table.Left);
      ]
  in
  List.iter
    (fun ((tier : Mm_workload.Gen.tier), p, model_seconds, r, mip) ->
      Table.add_row t
        [
          tier.Mm_workload.Gen.tier_name;
          string_of_int tier.Mm_workload.Gen.spec.Mm_workload.Gen.segments;
          string_of_int tier.Mm_workload.Gen.spec.Mm_workload.Gen.banks;
          string_of_int p.Mm_lp.Problem.ncols;
          string_of_int p.Mm_lp.Problem.nrows;
          Printf.sprintf "%.2f" model_seconds;
          Printf.sprintf "%.2f" mip.Mm_lp.Branch_bound.time;
          string_of_int mip.Mm_lp.Branch_bound.nodes;
          string_of_int r.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots;
          Printf.sprintf "%.0f" (pivots_per_second r);
          status_name mip;
        ])
    shots;
  Table.print t;
  (* model budget: generation plus ILP freeze; throughput floor is in
     pivots per second of LP time. The slowest point of this ladder (s3
     under the 60s quick cap, parallelism 2) sustained ~325 pivots/s
     when the floor was set, so 250 leaves headroom for machine noise
     while still catching a per-pivot cost that grows by a
     complexity class. *)
  let model_budget = if !full_mode then 120.0 else 30.0 in
  let throughput_floor = 250.0 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmark\": \"scaling (Gen.scale_tiers)\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"time_cap_seconds\": %.1f,\n" cap);
  Buffer.add_string buf
    (Printf.sprintf "  \"parallelism\": %d,\n" bench_parallelism);
  Buffer.add_string buf "  \"scaling\": [\n";
  List.iteri
    (fun i ((tier : Mm_workload.Gen.tier), p, model_seconds, r, mip) ->
      let spec = tier.Mm_workload.Gen.spec in
      let lp = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"tier\": %S, \"segments\": %d, \"banks\": %d, \"ports\": \
            %d, \"configs\": %d, \"vars\": %d, \"rows\": %d, \
            \"model_seconds\": %.3f, \"solve_seconds\": %.3f, \"nodes\": %d, \
            \"pivots\": %d, \"pivots_per_second\": %.1f, \"lu_solves\": \
            %d, \"status\": %S }%s\n"
           tier.Mm_workload.Gen.tier_name spec.Mm_workload.Gen.segments
           spec.Mm_workload.Gen.banks spec.Mm_workload.Gen.ports
           spec.Mm_workload.Gen.configs p.Mm_lp.Problem.ncols
           p.Mm_lp.Problem.nrows model_seconds mip.Mm_lp.Branch_bound.time
           mip.Mm_lp.Branch_bound.nodes lp.Mm_lp.Simplex.pivots
           (pivots_per_second r) lp.Mm_lp.Simplex.dense_fallbacks
           (status_name mip)
           (if i = List.length shots - 1 then "" else ",")))
    shots;
  Buffer.add_string buf "  ]\n}\n";
  write_bench_lp (Printf.sprintf "scaling, %d tiers" (List.length shots)) buf;
  let failures = ref [] in
  List.iter
    (fun ((tier : Mm_workload.Gen.tier), _, model_seconds, r, mip) ->
      let name = tier.Mm_workload.Gen.tier_name in
      if model_seconds > model_budget then
        failures :=
          Printf.sprintf "%s: model construction took %.1fs (budget %.0fs)"
            name model_seconds model_budget
          :: !failures;
      if
        mip.Mm_lp.Branch_bound.status = Mm_lp.Branch_bound.Unknown
        && mip.Mm_lp.Branch_bound.nodes <= 1
      then
        failures :=
          Printf.sprintf
            "%s: no branching progress within the %.0fs cap (root \
             relaxation stalled)"
            name cap
          :: !failures;
      let lp_time = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp_time in
      let pivots = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots in
      if lp_time > 1.0 && float_of_int pivots /. lp_time < throughput_floor
      then
        failures :=
          Printf.sprintf "%s: simplex throughput %.0f pivots/s (floor %.0f)"
            name
            (float_of_int pivots /. lp_time)
            throughput_floor
          :: !failures)
    shots;
  (match !failures with
  | [] -> line "all %d tiers within regression thresholds." (List.length shots)
  | fs ->
      List.iter (fun f -> Printf.eprintf "scaling: %s\n" f) (List.rev fs);
      exit 1)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  header "Micro-benchmarks of solver kernels (Bechamel)";
  let open Bechamel in
  let seg = Mm_design.Segment.make ~name:"s" ~depth:555 ~width:17 () in
  let bank = Mm_arch.Devices.virtex_blockram ~instances:64 () in
  let knapsack_problem =
    let m = Mm_lp.Model.create () in
    let rng = Prng.create 7 in
    let vars = Array.init 24 (fun _ -> Mm_lp.Model.binary m ()) in
    Mm_lp.Model.add_le m
      (Mm_lp.Expr.sum
         (Array.to_list
            (Array.map
               (fun v -> Mm_lp.Expr.var ~coeff:(float_of_int (Prng.int_in rng 1 20)) v)
               vars)))
      60.0;
    Mm_lp.Model.set_objective m Mm_lp.Model.Maximize
      (Mm_lp.Expr.sum
         (Array.to_list
            (Array.map
               (fun v -> Mm_lp.Expr.var ~coeff:(float_of_int (Prng.int_in rng 1 30)) v)
               vars)));
    Mm_lp.Model.to_problem m
  in
  let lp_problem =
    let m = Mm_lp.Model.create () in
    let rng = Prng.create 11 in
    let vars =
      Array.init 40 (fun _ ->
          Mm_lp.Model.add_var m ~ub:10.0
            ~obj:(float_of_int (Prng.int_in rng (-9) 9))
            Mm_lp.Problem.Continuous)
    in
    for _ = 1 to 30 do
      Mm_lp.Model.add_le m
        (Mm_lp.Expr.sum
           (Array.to_list
              (Array.map
                 (fun v ->
                   Mm_lp.Expr.var ~coeff:(float_of_int (Prng.int_in rng (-4) 5)) v)
                 vars)))
        (float_of_int (Prng.int_in rng 5 60))
    done;
    Mm_lp.Model.to_problem m
  in
  let tests =
    [
      Test.make ~name:"consumed_ports" (Staged.stage (fun () ->
          ignore
            (Mm_mapping.Preprocess.consumed_ports ~words:55 ~bank_depth:512
               ~ports:2 ())));
      Test.make ~name:"preprocess_coeffs" (Staged.stage (fun () ->
          ignore (Mm_mapping.Preprocess.coeffs seg bank)));
      Test.make ~name:"fragments_of" (Staged.stage (fun () ->
          ignore (Mm_mapping.Detailed.fragments_of ~segment:0 seg bank)));
      Test.make ~name:"lp_simplex_40x30" (Staged.stage (fun () ->
          let s = Mm_lp.Simplex.create lp_problem in
          ignore (Mm_lp.Simplex.solve s)));
      Test.make ~name:"bb_knapsack_24" (Staged.stage (fun () ->
          ignore (Mm_lp.Branch_bound.solve knapsack_problem)));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
    let results = Benchmark.all cfg instances test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        (Toolkit.Instance.monotonic_clock) results
    in
    ols
  in
  let t =
    Table.create [ ("kernel", Table.Left); ("ns/run", Table.Right) ]
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> Printf.sprintf "%.1f" e
            | _ -> "-"
          in
          Table.add_row t [ name; estimate ])
        results)
    tests;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("fig2", run_fig2);
    ("table2", run_table2);
    ("table3", run_table3);
    ("fig4", run_fig4);
    ("ablation-link", run_ablation_link);
    ("ablation-detailed", run_ablation_detailed);
    ("ablation-weights", run_ablation_weights);
    ("ablation-overlap", run_ablation_overlap);
    ("ablation-portmodel", run_ablation_portmodel);
    ("ablation-arbitration", run_ablation_arbitration);
    ("cuts-smoke", run_cuts_smoke);
    ("serve-smoke", run_serve_smoke);
    ("scaling", run_scaling);
    ("micro", run_micro);
  ]

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--full" -> full_mode := true
        | "--quick" -> full_mode := false
        | name when List.mem_assoc name experiments ->
            requested := name :: !requested
        | name ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
    Sys.argv;
  let to_run =
    match List.rev !requested with
    | [] ->
        (* the smoke legs are run-by-name only: each writes its own
           minimal BENCH_lp.json and would clobber the table3 sweep's
           record *)
        List.filter
          (fun n ->
            n <> "cuts-smoke" && n <> "scaling")
          (List.map fst experiments)
    | names -> names
  in
  line "Memory-mapping evaluation harness (%s mode)"
    (if !full_mode then "full" else "quick");
  List.iter (fun name -> (List.assoc name experiments) ()) to_run
