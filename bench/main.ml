(* Evaluation harness: regenerates every table and figure of the paper
   plus ablations of this reproduction's design choices.

   Usage:
     bench/main.exe [EXPERIMENT...] [--full]

   With no experiment names, every experiment runs in a bounded "quick"
   configuration. --full raises the ILP time caps (the paper solved to
   optimality on a 248 MHz Ultra-30; the complete formulation on the
   largest points is exactly as painful as the paper says).

   An experiment returns its JSON record (or [Null]) and its gate
   failures. After the run the driver writes every record to
   BENCH_lp.json as one object keyed by experiment name, prints each
   failure, and exits 1 if there was any: the CI legs cuts-smoke,
   serve-smoke and scaling are the experiments with gates. *)

open Mm_util
module J = Mm_obs.Json

let full_mode = ref false
let requested = ref []

let quick_cap () = if !full_mode then 900.0 else 60.0

let line fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

let header title =
  line "";
  line "==============================================================";
  line "%s" title;
  line "=============================================================="

let int n = J.Num (float_of_int n)
let opt_num = function Some v -> J.Num v | None -> J.Null

(* the leading fields of a record: what it measured, under which cap *)
let record_head benchmark =
  [ ("benchmark", J.Str benchmark); ("time_cap_seconds", J.Num (quick_cap ())) ]

let spec_fields (spec : Mm_workload.Gen.spec) =
  [
    ("segments", int spec.Mm_workload.Gen.segments);
    ("banks", int spec.Mm_workload.Gen.banks);
    ("ports", int spec.Mm_workload.Gen.ports);
    ("configs", int spec.Mm_workload.Gen.configs);
  ]

(* the gates' objective check: both arms found one, within 1e-6 *)
let same_objective a b =
  match (a, b) with Some a, Some b -> Float.abs (a -. b) <= 1e-6 | _ -> false

let objective_string o = J.to_string (opt_num o)

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
  (* traced re-run of the serial global leg: its time with tracing
     enabled plus the span totals and count-event totals (cut_pivots,
     flip, ...) recovered from the trace. Paired with the untraced
     cell it is the A/B evidence that tracing is cheap when on and free
     when off. *)
  traced_seconds : float;
  phases : (string * float) list;
  counters : (string * int) list;
}

(* Worker domains for the parallel leg of the sweep.  At least 2 so the
   work-stealing machinery is actually exercised even on one core. *)
let bench_parallelism = max 2 (Domain.recommended_domain_count ())

(* the cell of a run that ended without a mapping *)
let no_mapping =
  {
    seconds = 0.0;
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

(* The default solver (full cut pool, diving heuristic) under the quick
   cap; [Solver.cover_only] of it is the cuts A/B baseline. *)
let solver_options ?parallelism () =
  Mm_lp.Solver.options
    ~bb:(Mm_lp.Branch_bound.options ~time_limit:(quick_cap ()) ?parallelism ())
    ()

(* One mapper run of a design point, timed by the paper's rule: the
   complete formulation by its ILP alone, global/detailed by ILP plus
   detailed mapping. A run that ends without a mapping (budget
   exhausted before an incumbent) records the wall clock it burned,
   flagged as not optimal. *)
let measure ?trace method_ solver_options board design =
  let options = Mm_mapping.Mapper.options ~solver_options ?trace () in
  let t0 = Unix.gettimeofday () in
  match Mm_mapping.Mapper.run ~method_ ~options board design with
  | Error _ -> { no_mapping with seconds = Unix.gettimeofday () -. t0 }
  | Ok o ->
      let mip = o.Mm_mapping.Mapper.ilp_result.Mm_lp.Solver.mip in
      let st = o.Mm_mapping.Mapper.ilp_result.Mm_lp.Solver.stats in
      let par = st.Mm_lp.Solver.parallel in
      let detailed =
        match method_ with
        | Mm_mapping.Mapper.Complete_flat -> 0.0
        | Mm_mapping.Mapper.Global_detailed ->
            o.Mm_mapping.Mapper.detailed_seconds
      in
      {
        seconds = o.Mm_mapping.Mapper.ilp_seconds +. detailed;
        optimal = mip.Mm_lp.Branch_bound.status = Mm_lp.Branch_bound.Optimal;
        objective = Some o.Mm_mapping.Mapper.objective;
        pivots = st.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots;
        nodes = mip.Mm_lp.Branch_bound.nodes;
        domains = par.Mm_lp.Branch_bound.domains_used;
        stolen = par.Mm_lp.Branch_bound.nodes_stolen;
        idle = par.Mm_lp.Branch_bound.idle_seconds;
        cuts_root = st.Mm_lp.Solver.cuts_added;
        cuts_node = st.Mm_lp.Solver.node_cuts_added;
        cuts_dropped = st.Mm_lp.Solver.cuts_dropped;
        cuts_fams = st.Mm_lp.Solver.cuts_by_family;
        incumbent =
          Mm_lp.Branch_bound.incumbent_source_to_string
            mip.Mm_lp.Branch_bound.incumbent_source;
      }

let table3_cache : t3_row list option ref = ref None

let measure_table3 () =
  match !table3_cache with
  | Some rows -> rows
  | None ->
      let full = solver_options () in
      let base = Mm_lp.Solver.cover_only full in
      (* [bench_parallelism] worker domains; the serial leg stays the
         recorded baseline *)
      let par = solver_options ~parallelism:bench_parallelism () in
      let rows =
        List.map
          (fun (point : Mm_workload.Table3.point) ->
            let spec = point.Mm_workload.Table3.spec in
            Printf.eprintf "table3: point %d segments / %d banks...\n%!"
              spec.Mm_workload.Gen.segments spec.Mm_workload.Gen.banks;
            let board, design = Mm_workload.Gen.instance spec in
            let global_ = Mm_mapping.Mapper.Global_detailed
            and complete_ = Mm_mapping.Mapper.Complete_flat in
            let run ?trace m o = measure ?trace m o board design in
            let global = run global_ full in
            let global_par = run global_ par in
            let complete = run complete_ full in
            let global_base = run global_ base in
            let complete_base = run complete_ base in
            List.iter
              (fun (what, a, b) ->
                match (a.objective, b.objective) with
                | Some x, Some y when Float.abs (x -. y) > 1e-6 ->
                    Printf.eprintf
                      "table3: WARNING %s objective mismatch (%g vs %g)\n%!"
                      what x y
                | _ -> ())
              [
                ("serial/parallel", global, global_par);
                ("global full-pool/cover-only", global, global_base);
                ("complete full-pool/cover-only", complete, complete_base);
              ];
            let tr = Mm_obs.Trace.create () in
            let traced_seconds = (run ~trace:tr global_ full).seconds in
            let phases, counters =
              match Mm_obs.Summary.of_lines (Mm_obs.Trace.dump_lines tr) with
              | Ok events ->
                  ( Mm_obs.Summary.phase_totals events,
                    Mm_obs.Summary.counter_totals events )
              | Error _ -> ([], [])
            in
            { point; global; global_par; complete; global_base; complete_base;
              traced_seconds; phases; counters })
          Mm_workload.Table3.points
      in
      table3_cache := Some rows;
      rows

let cell_json c =
  J.Obj
    [
      ("seconds", J.Num c.seconds);
      ("optimal", J.Bool c.optimal);
      ("objective", opt_num c.objective);
      ("pivots", int c.pivots);
      ("nodes", int c.nodes);
      ("domains", int c.domains);
      ("nodes_stolen", int c.stolen);
      ("idle_seconds", J.Num c.idle);
      ( "cuts",
        J.Obj
          [
            ("root", int c.cuts_root);
            ("node", int c.cuts_node);
            ("dropped", int c.cuts_dropped);
            ( "by_family",
              J.Obj (List.map (fun (f, n) -> (f, int n)) c.cuts_fams) );
          ] );
      ("incumbent_source", J.Str c.incumbent);
    ]

(* Percent fewer nodes under the full pool than under the cover-only
   baseline; [None] unless both arms proved optimality at one
   objective. *)
let node_reduction ~baseline ~full =
  if
    baseline.optimal && full.optimal && baseline.nodes > 0
    && same_objective baseline.objective full.objective
  then
    Some
      (100.0
      *. float_of_int (baseline.nodes - full.nodes)
      /. float_of_int baseline.nodes)
  else None

(* Cut-subsystem A/B record for one formulation: the root-cover-only
   configuration (Solver.cover_only, the pre-pool behavior) against
   the full pool — lifted covers, GMI, aging, node separation and the
   GUB diving heuristic. *)
let cuts_pair ~baseline ~full =
  J.Obj
    [
      ("cover_only", cell_json baseline);
      ("full_pool", cell_json full);
      ("node_reduction_pct", opt_num (node_reduction ~baseline ~full));
    ]

(* Machine-readable record of the Table-3 sweep: per design point, both
   engines' cells, the parallel and traced global legs and the cuts
   A/B; then the trace A/B over the whole sweep. *)
let table3_record rows =
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let untraced = total (fun r -> r.global.seconds)
  and traced = total (fun r -> r.traced_seconds) in
  let point r =
    let traced =
      J.Obj
        [
          ("seconds", J.Num r.traced_seconds);
          ("phases", J.Obj (List.map (fun (n, s) -> (n, J.Num s)) r.phases));
          ("counters", J.Obj (List.map (fun (n, k) -> (n, int k)) r.counters));
        ]
    in
    J.Obj
      (spec_fields r.point.Mm_workload.Table3.spec
      @ [
          ("complete", cell_json r.complete);
          ("global", cell_json r.global);
          ("global_parallel", cell_json r.global_par);
          ("global_traced", traced);
          ( "cuts_ab",
            J.Obj
              [
                ( "complete",
                  cuts_pair ~baseline:r.complete_base ~full:r.complete );
                ("global", cuts_pair ~baseline:r.global_base ~full:r.global);
              ] );
        ])
  in
  (* the untraced leg runs with tracing disabled (the no-op sink), the
     traced leg with a live trace; their totals bound the cost of both
     paths (a zero untraced total renders the percentage as null) *)
  J.Obj
    (record_head "table3 complete vs global/detailed"
    @ [
        ("mode", J.Str (if !full_mode then "full" else "quick"));
        ("parallelism", int bench_parallelism);
        ("points", J.List (List.map point rows));
        ( "trace_ab",
          J.Obj
            [
              ("untraced_global_seconds", J.Num untraced);
              ("traced_global_seconds", J.Num traced);
              ( "overhead_pct",
                J.Num (100.0 *. (traced -. untraced) /. untraced) );
            ] );
      ])

let fmt_time seconds optimal =
  if optimal then Printf.sprintf "%.2f" seconds
  else Printf.sprintf "%.2f*" seconds

(* One row per cuts A/B pair [(label, cover_only, full_pool)]; the
   objective column is the full pool's. *)
let print_cuts_ab label pairs =
  let t =
    Table.create
      [
        (label, Table.Left);
        ("cover-only nodes", Table.Right);
        ("full-pool nodes", Table.Right);
        ("reduction", Table.Right);
        ("cuts (root/node/drop)", Table.Right);
        ("incumbent", Table.Left);
        ("objective", Table.Right);
      ]
  in
  List.iter
    (fun (name, base, full) ->
      Table.add_row t
        [
          name;
          string_of_int base.nodes;
          string_of_int full.nodes;
          (match node_reduction ~baseline:base ~full with
          | Some pct -> Printf.sprintf "%.0f%%" pct
          | None -> "-");
          Printf.sprintf "%d/%d/%d" full.cuts_root full.cuts_node
            full.cuts_dropped;
          full.incumbent;
          (match full.objective with
          | Some o -> Printf.sprintf "%.0f" o
          | None -> "-");
        ])
    pairs;
  Table.print t

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
          Printf.sprintf "%.1fx"
            (r.complete.seconds /. Float.max r.global.seconds 1e-6);
          Printf.sprintf "%.1f" pc;
          Printf.sprintf "%.1f" pg;
          Printf.sprintf "%.1fx" (pc /. pg);
        ])
    rows;
  Table.print t;
  line "";
  line "Cuts A/B, complete formulation (cover-only root vs full pool +";
  line "node cuts + GUB diving; same budget, serial):";
  print_cuts_ab "#segs"
    (List.map
       (fun r ->
         let segs = r.point.Mm_workload.Table3.spec.Mm_workload.Gen.segments in
         (string_of_int segs, r.complete_base, r.complete))
       rows);
  line "";
  (table3_record rows, [])

let run_fig4 () =
  header "Fig. 4: complete versus global/detailed execution times";
  let rows = measure_table3 () in
  let series label glyph f =
    {
      Ascii_plot.label;
      glyph;
      points = List.mapi (fun i r -> (float_of_int i, f r)) rows;
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
   heuristic versus the root-cover-only baseline. Gate: the two
   configurations must prove the same objectives — the CI guard for
   cut validity (an invalid cut shows up as a changed optimum). *)
let run_cuts_smoke () =
  header "Cuts smoke: Table-3 point 0, cover-only baseline vs full pool";
  let spec = (List.hd Mm_workload.Table3.points).Mm_workload.Table3.spec in
  let board, design = Mm_workload.Gen.instance spec in
  let full = solver_options () in
  let results =
    List.map
      (fun (name, m) ->
        ( name,
          measure m (Mm_lp.Solver.cover_only full) board design,
          measure m full board design ))
      [
        ("global", Mm_mapping.Mapper.Global_detailed);
        ("complete", Mm_mapping.Mapper.Complete_flat);
      ]
  in
  print_cuts_ab "formulation" results;
  let failures =
    List.filter_map
      (fun (name, (base : t3_cell), (full : t3_cell)) ->
        if same_objective base.objective full.objective then None
        else
          Some
            (Printf.sprintf
               "%s objective mismatch: cover-only %s vs full pool %s" name
               (objective_string base.objective)
               (objective_string full.objective)))
      results
  in
  if failures = [] then
    line "cover-only and full-pool configurations agree on every objective.";
  ( J.Obj
      (record_head "cuts smoke (table3 point 0)"
      @ spec_fields spec
      @ [
          ( "cuts_ab",
            J.Obj
              (List.map
                 (fun (name, baseline, full) ->
                   (name, cuts_pair ~baseline ~full))
                 results) );
        ]),
    failures )

(* ------------------------------------------------------------------ *)
(* Serve smoke (CI leg)                                                 *)
(* ------------------------------------------------------------------ *)

(* one request of the serve smoke: its index, wall seconds, cache
   verdict, the cache entry's warm-solve count, objective and pivots *)
type shot = {
  request : int;
  wall : float;
  hit : bool;
  solves : int;
  obj : float option;
  piv : int;
}

let shot_json s =
  J.Obj
    [
      ("cache_hit", J.Bool s.hit);
      ("warm_solves", int s.solves);
      ("seconds", J.Num s.wall);
      ("pivots", int s.piv);
      ("objective", opt_num s.obj);
    ]

(* The mapping service's warm-start A/B: repeat the smallest Table-3
   point through [Mm_service.Engine] — the exact path [mmap serve]
   workers run — and compare the cold first solve against the
   cache-warmed repeats; the record keeps every request and the
   repeats' mean pivot reduction against the cold one. Gate: every
   repeat must hit the cache at the cold objective (a warm start must
   accelerate the search, never change the optimum). *)
let run_serve_smoke () =
  header "Serve smoke: warm-vs-cold through the service engine";
  let spec = (List.hd Mm_workload.Table3.points).Mm_workload.Table3.spec in
  let board, design = Mm_workload.Gen.instance spec in
  let knobs = Mm_service.Knobs.make ~time_limit:(quick_cap ()) () in
  let engine = Mm_service.Engine.create () in
  let req = Mm_service.Request.make ~id:"bench" ~knobs board design in
  let shots, errors =
    List.partition_map
      (fun request ->
        let t0 = Unix.gettimeofday () in
        match Mm_service.Engine.handle engine req with
        | Mm_service.Request.Ok_response { cache_hit; warm_solves; report; _ }
          ->
            let wall = Unix.gettimeofday () -. t0 in
            let num path obj = Option.bind (J.member path obj) J.to_float in
            let piv = Option.bind (J.member "lp" report) (num "pivots") in
            Either.Left
              { request; wall; hit = cache_hit; solves = warm_solves;
                obj = num "objective" report;
                piv = Option.fold ~none:0 ~some:int_of_float piv }
        | Mm_service.Request.Error_response { message; _ } ->
            Either.Right
              (Printf.sprintf "request %d failed: %s" request message))
      (List.init 4 Fun.id)
  in
  match shots with
  | cold :: (_ :: _ as warm) when errors = [] ->
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
        (fun s ->
          Table.add_row t
            [
              string_of_int s.request;
              (if s.hit then "hit" else "miss");
              string_of_int s.solves;
              Printf.sprintf "%.3f" s.wall;
              string_of_int s.piv;
              (match s.obj with
              | Some o -> Printf.sprintf "%.0f" o
              | None -> "-");
            ])
        shots;
      Table.print t;
      let warm_piv =
        float_of_int (List.fold_left (fun a s -> a + s.piv) 0 warm)
        /. float_of_int (List.length warm)
      in
      let reduction =
        if cold.piv > 0 then
          100.0 *. (float_of_int cold.piv -. warm_piv) /. float_of_int cold.piv
        else 0.0
      in
      let failures =
        List.concat_map
          (fun s ->
            (if s.hit then []
             else [ Printf.sprintf "repeat request %d missed the warm cache"
                      s.request ])
            @
            if same_objective cold.obj s.obj then []
            else
              [
                Printf.sprintf "warm objective %s differs from cold %s"
                  (objective_string s.obj) (objective_string cold.obj);
              ])
          warm
      in
      if failures = [] then
        line
          "every repeat hit the warm cache at the cold objective (pivots \
           %.2f%%)."
          reduction;
      ( J.Obj
          (record_head "serve smoke (table3 point 0)"
          @ spec_fields spec
          @ [
              ( "serve_warm_ab",
                J.Obj
                  [
                    ("requests", J.List (List.map shot_json shots));
                    ("pivot_reduction_percent", J.Num reduction);
                  ] );
            ]),
        failures )
  | _ -> (J.Null, errors)

(* ------------------------------------------------------------------ *)
(* Scaling (CI leg)                                                    *)
(* ------------------------------------------------------------------ *)

(* Stress the generator and the LP core well past the paper's Table-3
   envelope (132 segments / 180 banks / 265 ports / 375 configs at its
   largest): each [Gen.scale_tier] instance is generated, frozen into
   the global ILP and solved under a per-tier wall-clock cap, and the
   resulting nodes/pivots/seconds curve is the scaling record (CI's
   scaling leg).

   Gates, all deliberately loose — they catch complexity-class
   regressions (an accidentally quadratic generator, a simplex that
   stops making progress), not machine noise:
   - generating + building a tier's model must fit its model budget;
   - every capped solve must make branching progress (the root
     relaxation finished and the tree search processed nodes; proving
     optimality on the big tiers is a --full luxury);
   - simplex throughput must not collapse below a pivots/second
     floor. *)
let run_scaling () =
  header "Scaling: generator + LP core beyond the Table-3 envelope";
  let tiers =
    if !full_mode then Mm_workload.Gen.scale_tiers
    else List.filteri (fun i _ -> i < 3) Mm_workload.Gen.scale_tiers
  in
  let options = solver_options ~parallelism:bench_parallelism () in
  let shots, build_failures =
    List.partition_map
      (fun (tier : Mm_workload.Gen.tier) ->
        let t0 = Unix.gettimeofday () in
        let board, design = Mm_workload.Gen.tier_instance tier in
        match Mm_mapping.Global_ilp.build board design with
        | Error e ->
            Either.Right
              (Printf.sprintf "%s failed to build: %s"
                 tier.Mm_workload.Gen.tier_name e)
        | Ok b ->
            let p = b.Mm_mapping.Global_ilp.problem in
            let model_seconds = Unix.gettimeofday () -. t0 in
            Either.Left (tier, p, model_seconds, Mm_lp.Solver.solve ~options p))
      tiers
  in
  let pivots_per_second (r : Mm_lp.Solver.result) =
    let lp_time = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp_time in
    let pivots = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp.Mm_lp.Simplex.pivots in
    if lp_time > 0.0 then float_of_int pivots /. lp_time else 0.0
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
    (fun ((tier : Mm_workload.Gen.tier), p, model_seconds, r) ->
      let mip = r.Mm_lp.Solver.mip in
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
          Mm_lp.Branch_bound.status_to_string mip.Mm_lp.Branch_bound.status;
        ])
    shots;
  Table.print t;
  (* model budget: generation plus ILP freeze; throughput floor is in
     pivots per second of LP time. The slowest point of this ladder (s3
     under the 60s quick cap, parallelism 2) sustained 1,885 and 2,077
     pivots/s in two runs on a 2-vCPU host when the floor was set, so
     900 (about half the slower run) leaves headroom for machine noise
     while a per-pivot cost that doubles trips it. *)
  let model_budget = if !full_mode then 120.0 else 30.0 in
  let throughput_floor = 900.0 in
  let gate ((tier : Mm_workload.Gen.tier), _, model_seconds, r) =
    let mip = r.Mm_lp.Solver.mip in
    let fail cond msg =
      if cond then [ tier.Mm_workload.Gen.tier_name ^ ": " ^ msg ] else []
    in
    fail (model_seconds > model_budget)
      (Printf.sprintf "model construction took %.1fs (budget %.0fs)"
         model_seconds model_budget)
    @ fail
        (mip.Mm_lp.Branch_bound.status = Mm_lp.Branch_bound.Unknown
        && mip.Mm_lp.Branch_bound.nodes <= 1)
        (Printf.sprintf
           "no branching progress within the %.0fs cap (root relaxation \
            stalled)"
           (quick_cap ()))
    @ fail
        (r.Mm_lp.Solver.stats.Mm_lp.Solver.lp_time > 1.0
        && pivots_per_second r < throughput_floor)
        (Printf.sprintf "simplex throughput %.0f pivots/s (floor %.0f)"
           (pivots_per_second r) throughput_floor)
  in
  let failures = build_failures @ List.concat_map gate shots in
  if failures = [] then
    line "all %d tiers within regression thresholds." (List.length shots);
  let tier_json ((tier : Mm_workload.Gen.tier), p, model_seconds, r) =
    let mip = r.Mm_lp.Solver.mip in
    let lp = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp in
    J.Obj
      ((("tier", J.Str tier.Mm_workload.Gen.tier_name)
       :: spec_fields tier.Mm_workload.Gen.spec)
      @ [
          ("vars", int p.Mm_lp.Problem.ncols);
          ("rows", int p.Mm_lp.Problem.nrows);
          ("model_seconds", J.Num model_seconds);
          ("solve_seconds", J.Num mip.Mm_lp.Branch_bound.time);
          ("nodes", int mip.Mm_lp.Branch_bound.nodes);
          ("pivots", int lp.Mm_lp.Simplex.pivots);
          ("pivots_per_second", J.Num (pivots_per_second r));
          ("lu_solves", int lp.Mm_lp.Simplex.dense_fallbacks);
          ( "status",
            J.Str
              (Mm_lp.Branch_bound.status_to_string
                 mip.Mm_lp.Branch_bound.status) );
        ])
  in
  ( J.Obj
      (record_head "scaling (Gen.scale_tiers)"
      @ [
          ("parallelism", int bench_parallelism);
          ("scaling", J.List (List.map tier_json shots));
        ]),
    failures )

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

(* an experiment that prints only: no record, no gate *)
let plain run () =
  run ();
  (J.Null, [])

let experiments =
  [
    ("table1", plain run_table1);
    ("fig2", plain run_fig2);
    ("table2", plain run_table2);
    ("table3", run_table3);
    ("fig4", plain run_fig4);
    ("ablation-link", plain run_ablation_link);
    ("ablation-detailed", plain run_ablation_detailed);
    ("ablation-weights", plain run_ablation_weights);
    ("ablation-overlap", plain run_ablation_overlap);
    ("ablation-portmodel", plain run_ablation_portmodel);
    ("ablation-arbitration", plain run_ablation_arbitration);
    ("cuts-smoke", run_cuts_smoke);
    ("serve-smoke", run_serve_smoke);
    ("scaling", run_scaling);
    ("micro", plain run_micro);
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
    if !requested = [] then List.map fst experiments else List.rev !requested
  in
  line "Memory-mapping evaluation harness (%s mode)"
    (if !full_mode then "full" else "quick");
  let results =
    List.map (fun name -> (name, (List.assoc name experiments) ())) to_run
  in
  let records =
    List.filter_map
      (function
        | _, (J.Null, _) -> None | name, (record, _) -> Some (name, record))
      results
  in
  if records <> [] then begin
    (* one record per line *)
    let oc = open_out "BENCH_lp.json" in
    List.iteri
      (fun i (name, record) ->
        Printf.fprintf oc "%s%s: %s\n"
          (if i = 0 then "{ " else ", ")
          (J.quote name) (J.to_string record))
      records;
    output_string oc "}\n";
    close_out oc;
    line "wrote BENCH_lp.json (%s)" (String.concat ", " (List.map fst records))
  end;
  let failures =
    List.concat_map
      (fun (name, (_, fs)) -> List.map (fun f -> name ^ ": " ^ f) fs)
      results
  in
  List.iter prerr_endline failures;
  if failures <> [] then exit 1
