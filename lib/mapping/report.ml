open Mm_util

let part_name = function
  | Detailed.Full -> "full"
  | Detailed.Width_strip -> "w-strip"
  | Detailed.Depth_strip -> "d-strip"
  | Detailed.Corner -> "corner"

let assignment_summary ?port_model board design (a : Global_ilp.assignment) =
  let m = Mm_design.Design.num_segments design in
  let tbl =
    Table.create ~title:"Assignment summary"
      [
        ("bank type", Table.Left);
        ("segments", Table.Right);
        ("ports used", Table.Right);
        ("port budget", Table.Right);
        ("bits used", Table.Right);
        ("bit budget", Table.Right);
      ]
  in
  for t = 0 to Mm_arch.Board.num_types board - 1 do
    let bt = Mm_arch.Board.bank_type board t in
    let segs = List.filter (fun d -> a.(d) = t) (Ints.range m) in
    let coeff d =
      Preprocess.coeffs ?port_model (Mm_design.Design.segment design d) bt
    in
    let ports = Ints.sum_by (fun d -> (coeff d).Preprocess.cp) segs in
    let bits = Ints.sum_by (fun d -> Preprocess.consumed_bits (coeff d)) segs in
    Table.add_row tbl
      [
        bt.Mm_arch.Bank_type.name;
        string_of_int (List.length segs);
        string_of_int ports;
        string_of_int (Mm_arch.Bank_type.total_ports bt);
        string_of_int bits;
        string_of_int (Mm_arch.Bank_type.total_capacity_bits bt);
      ]
  done;
  Table.render tbl

let placement_table board design (t : Detailed.t) =
  let tbl =
    Table.create ~title:"Detailed placement"
      [
        ("type", Table.Left);
        ("inst", Table.Right);
        ("segment", Table.Left);
        ("part", Table.Left);
        ("config", Table.Left);
        ("words", Table.Right);
        ("ports", Table.Left);
        ("offset", Table.Right);
        ("shared", Table.Left);
      ]
  in
  let sorted =
    List.sort
      (fun (p : Detailed.placement) (q : Detailed.placement) ->
        compare
          (p.Detailed.type_index, p.Detailed.instance, p.Detailed.offset_bits)
          (q.Detailed.type_index, q.Detailed.instance, q.Detailed.offset_bits))
      t.Detailed.placements
  in
  List.iter
    (fun (p : Detailed.placement) ->
      let f = p.Detailed.fragment in
      let bt = Mm_arch.Board.bank_type board p.Detailed.type_index in
      let seg = Mm_design.Design.segment design f.Detailed.segment in
      Table.add_row tbl
        [
          bt.Mm_arch.Bank_type.name;
          string_of_int p.Detailed.instance;
          seg.Mm_design.Segment.name;
          part_name f.Detailed.part;
          Mm_arch.Config.to_string f.Detailed.config;
          Printf.sprintf "%d/%d" f.Detailed.words f.Detailed.rounded_words;
          Printf.sprintf "%d..%d" p.Detailed.first_port
            (p.Detailed.first_port + f.Detailed.ports_needed - 1);
          string_of_int p.Detailed.offset_bits;
          (if p.Detailed.shared then "yes" else "");
        ])
    sorted;
  Table.render tbl

let cost_breakdown ?(weights = Cost.default_weights)
    ?(access_model = Cost.Uniform) board design (a : Global_ilp.assignment) =
  let tbl =
    Table.create ~title:"Cost breakdown (Section 4.1.3 objective)"
      [
        ("segment", Table.Left);
        ("type", Table.Left);
        ("latency", Table.Right);
        ("pin delay", Table.Right);
        ("pin I/O", Table.Right);
        ("weighted", Table.Right);
      ]
  in
  let totals = ref (0.0, 0.0, 0.0, 0.0) in
  Array.iteri
    (fun d t ->
      let seg = Mm_design.Design.segment design d in
      let bt = Mm_arch.Board.bank_type board t in
      let c = Preprocess.coeffs seg bt in
      let lat = Cost.latency_cost access_model seg bt in
      let pd = Cost.pin_delay_cost access_model seg bt in
      let pio = Cost.pin_io_cost c seg bt in
      let w = Cost.assignment_cost weights access_model c seg bt in
      let l0, p0, i0, w0 = !totals in
      totals := (l0 +. lat, p0 +. pd, i0 +. pio, w0 +. w);
      Table.add_row tbl
        [
          seg.Mm_design.Segment.name;
          bt.Mm_arch.Bank_type.name;
          Printf.sprintf "%.0f" lat;
          Printf.sprintf "%.0f" pd;
          Printf.sprintf "%.0f" pio;
          Printf.sprintf "%.1f" w;
        ])
    a;
  Table.add_rule tbl;
  let l, p, i, w = !totals in
  Table.add_row tbl
    [
      "TOTAL";
      "";
      Printf.sprintf "%.0f" l;
      Printf.sprintf "%.0f" p;
      Printf.sprintf "%.0f" i;
      Printf.sprintf "%.1f" w;
    ];
  Table.render tbl

let lifetime_chart (design : Mm_design.Design.t) =
  match design.Mm_design.Design.lifetimes with
  | None -> ""
  | Some lt ->
      let n = Mm_design.Design.num_segments design in
      let horizon =
        1 + Ints.max_by (fun i -> (Mm_design.Lifetime.interval lt i).Mm_design.Lifetime.death)
              (Ints.range n)
      in
      let width = 60 in
      let scale t = t * (width - 1) / max 1 (horizon - 1) in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "Segment lifetimes (0 .. %d control steps)\n" (horizon - 1));
      let name_width =
        Ints.max_by
          (fun i ->
            String.length (Mm_design.Design.segment design i).Mm_design.Segment.name)
          (Ints.range n)
      in
      for i = 0 to n - 1 do
        let iv = Mm_design.Lifetime.interval lt i in
        let a = scale iv.Mm_design.Lifetime.birth
        and b = scale iv.Mm_design.Lifetime.death in
        let row =
          String.init width (fun c ->
              if c < a || c > b then '.' else if c = a || c = b then '|' else '=')
        in
        let name = (Mm_design.Design.segment design i).Mm_design.Segment.name in
        Buffer.add_string buf
          (Printf.sprintf "  %-*s %s [%d, %d]\n" name_width name row
             iv.Mm_design.Lifetime.birth iv.Mm_design.Lifetime.death)
      done;
      Buffer.contents buf

let lp_core_summary (r : Mm_lp.Solver.result) =
  let s = r.Mm_lp.Solver.stats in
  let lp = s.Mm_lp.Solver.lp in
  let mip = r.Mm_lp.Solver.mip in
  let core =
    Printf.sprintf
      "LP core: %d nodes, %d pivots (%d phase-1, %d flips), %d \
       refactorizations (%d devex resets), eta<=%d, fill %d, basis nnz %d | \
       %d LU solves | LP time %.3fs (worst node \
       %.3fs)"
      mip.Mm_lp.Branch_bound.nodes lp.Mm_lp.Simplex.pivots
      lp.Mm_lp.Simplex.phase1_pivots lp.Mm_lp.Simplex.flips
      lp.Mm_lp.Simplex.refactorizations lp.Mm_lp.Simplex.devex_resets
      lp.Mm_lp.Simplex.max_eta lp.Mm_lp.Simplex.lu_fill
      lp.Mm_lp.Simplex.basis_nnz lp.Mm_lp.Simplex.dense_fallbacks
      s.Mm_lp.Solver.lp_time
      mip.Mm_lp.Branch_bound.max_node_lp_time
  in
  let pricing_part =
    Printf.sprintf " | %d columns priced" lp.Mm_lp.Simplex.cols_priced
    ^
    if lp.Mm_lp.Simplex.refactor_s > 0.0 then
      Printf.sprintf
        " (price %.3fs, duals %.3fs, ftran %.3fs, btran %.3fs, lu update \
         %.3fs, refactor %.3fs)"
        lp.Mm_lp.Simplex.price_s lp.Mm_lp.Simplex.duals_s
        lp.Mm_lp.Simplex.ftran_s lp.Mm_lp.Simplex.btran_s
        lp.Mm_lp.Simplex.lu_update_s lp.Mm_lp.Simplex.refactor_s
    else ""
  in
  let cuts_part =
    if s.Mm_lp.Solver.cuts_added + s.Mm_lp.Solver.node_cuts_added = 0 then ""
    else
      Printf.sprintf " | cuts %s (%d root, %d node, %d dropped)"
        (String.concat ", "
           (List.map
              (fun (fam, n) -> Printf.sprintf "%s=%d" fam n)
              s.Mm_lp.Solver.cuts_by_family))
        s.Mm_lp.Solver.cuts_added s.Mm_lp.Solver.node_cuts_added
        s.Mm_lp.Solver.cuts_dropped
  in
  let inc_part =
    match mip.Mm_lp.Branch_bound.incumbent_source with
    | Mm_lp.Branch_bound.No_incumbent -> ""
    | src ->
        Printf.sprintf " | incumbent from %s"
          (Mm_lp.Branch_bound.incumbent_source_to_string src)
  in
  let core = core ^ pricing_part ^ cuts_part ^ inc_part in
  let par = s.Mm_lp.Solver.parallel in
  if par.Mm_lp.Branch_bound.domains_used <= 1 then core
  else
    core
    ^ Printf.sprintf " | %d domains, %d stolen, idle %.3fs"
        par.Mm_lp.Branch_bound.domains_used
        par.Mm_lp.Branch_bound.nodes_stolen
        par.Mm_lp.Branch_bound.idle_seconds

(* One-line echo of the MIP configuration a solve ran under, so a report
   is self-describing when flags flip cut families or heuristics. *)
let solver_config (o : Mm_lp.Solver.options) =
  let seps =
    if o.Mm_lp.Solver.separators = [] then "off"
    else
      String.concat "+" (List.map Mm_lp.Separator.name o.Mm_lp.Solver.separators)
  in
  Printf.sprintf
    "Solver config: cuts=%s max-age=%s node-depth=%d node-freq=%d \
     heuristics=%s parallelism=%d"
    seps
    (if o.Mm_lp.Solver.cut_max_age = max_int then "inf"
     else string_of_int o.Mm_lp.Solver.cut_max_age)
    o.Mm_lp.Solver.bb.Mm_lp.Branch_bound.node_cut_depth
    o.Mm_lp.Solver.bb.Mm_lp.Branch_bound.node_cut_freq
    (if o.Mm_lp.Solver.heuristics then "on" else "off")
    o.Mm_lp.Solver.bb.Mm_lp.Branch_bound.parallelism

let outcome board design (o : Mapper.outcome) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Method: %s\n"
       (match o.Mapper.method_ with
       | Mapper.Global_detailed -> "global/detailed (this paper)"
       | Mapper.Complete_flat -> "complete flat ILP (baseline [9])"));
  Buffer.add_string buf
    (Printf.sprintf
       "Objective: %.1f | retries: %d | ILP: %.3fs | detailed: %.3fs | total: %.3fs\n"
       o.Mapper.objective o.Mapper.retries o.Mapper.ilp_seconds
       o.Mapper.detailed_seconds o.Mapper.total_seconds);
  Buffer.add_string buf (lp_core_summary o.Mapper.ilp_result);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "Fragmentation: %d extra fragment(s); instances used: %s\n\n"
       (Detailed.fragmentation o.Mapper.mapping)
       (String.concat ", "
          (List.map
             (fun (t, c) ->
               Printf.sprintf "%s=%d"
                 (Mm_arch.Board.bank_type board t).Mm_arch.Bank_type.name c)
             (Detailed.instances_used o.Mapper.mapping))));
  Buffer.add_string buf (assignment_summary board design o.Mapper.assignment);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (cost_breakdown board design o.Mapper.assignment);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (placement_table board design o.Mapper.mapping);
  Buffer.contents buf

(* {2 Structured reports}

   [t] is the wire-format view of an outcome: everything [mmap solve
   --json] prints and every [mmap serve] response carries, derived once
   from the same mapper outcome the text report renders. *)

type t = {
  board : Mm_arch.Board.t;
  design : Mm_design.Design.t;
  result : Mapper.outcome;
}

let of_outcome board design result = { board; design; result }
let render t = outcome t.board t.design t.result

let method_to_string = function
  | Mapper.Global_detailed -> "global"
  | Mapper.Complete_flat -> "complete"

let to_json t =
  let module J = Mm_obs.Json in
  let o = t.result in
  let board = t.board and design = t.design in
  let mip = o.Mapper.ilp_result.Mm_lp.Solver.mip in
  let stats = o.Mapper.ilp_result.Mm_lp.Solver.stats in
  let lp = stats.Mm_lp.Solver.lp in
  let opt_num = function None -> J.Null | Some v -> J.Num v in
  let attempt (a : Mapper.attempt) =
    J.Obj
      [
        ("index", J.Num (float_of_int a.Mapper.index));
        ( "ilp_status",
          J.Str (Mm_lp.Branch_bound.status_to_string a.Mapper.ilp_status) );
        ("ilp_objective", opt_num a.Mapper.ilp_objective);
        ("ilp_nodes", J.Num (float_of_int a.Mapper.ilp_nodes));
        ("ilp_seconds", J.Num a.Mapper.ilp_seconds);
        ( "detailed_failure",
          match a.Mapper.detailed_failure with
          | None -> J.Null
          | Some r -> J.Str r );
      ]
  in
  let assignment =
    List.map
      (fun d ->
        let seg = Mm_design.Design.segment design d in
        let bt = Mm_arch.Board.bank_type board o.Mapper.assignment.(d) in
        J.Obj
          [
            ("segment", J.Str seg.Mm_design.Segment.name);
            ("type", J.Str bt.Mm_arch.Bank_type.name);
          ])
      (Mm_util.Ints.range (Mm_design.Design.num_segments design))
  in
  let placement (p : Detailed.placement) =
    let f = p.Detailed.fragment in
    let bt = Mm_arch.Board.bank_type board p.Detailed.type_index in
    let seg = Mm_design.Design.segment design f.Detailed.segment in
    J.Obj
      [
        ("type", J.Str bt.Mm_arch.Bank_type.name);
        ("instance", J.Num (float_of_int p.Detailed.instance));
        ("segment", J.Str seg.Mm_design.Segment.name);
        ("part", J.Str (part_name f.Detailed.part));
        ("config", J.Str (Mm_arch.Config.to_string f.Detailed.config));
        ("words", J.Num (float_of_int f.Detailed.words));
        ("rounded_words", J.Num (float_of_int f.Detailed.rounded_words));
        ("first_port", J.Num (float_of_int p.Detailed.first_port));
        ("ports", J.Num (float_of_int f.Detailed.ports_needed));
        ("offset_bits", J.Num (float_of_int p.Detailed.offset_bits));
        ("shared", J.Bool p.Detailed.shared);
      ]
  in
  J.Obj
    [
      ("method", J.Str (method_to_string o.Mapper.method_));
      ("objective", J.Num o.Mapper.objective);
      ( "status",
        J.Str
          (Mm_lp.Branch_bound.status_to_string mip.Mm_lp.Branch_bound.status)
      );
      ("best_bound", J.Num mip.Mm_lp.Branch_bound.best_bound);
      ("retries", J.Num (float_of_int o.Mapper.retries));
      ("attempts", J.List (List.map attempt o.Mapper.attempts));
      ( "timing",
        J.Obj
          [
            ("ilp_seconds", J.Num o.Mapper.ilp_seconds);
            ("detailed_seconds", J.Num o.Mapper.detailed_seconds);
            ("total_seconds", J.Num o.Mapper.total_seconds);
          ] );
      ( "lp",
        J.Obj
          [
            ("nodes", J.Num (float_of_int mip.Mm_lp.Branch_bound.nodes));
            ("pivots", J.Num (float_of_int lp.Mm_lp.Simplex.pivots));
            ( "cuts_added",
              J.Num (float_of_int stats.Mm_lp.Solver.cuts_added) );
            ( "node_cuts_added",
              J.Num (float_of_int stats.Mm_lp.Solver.node_cuts_added) );
            ( "warm_applied",
              J.List
                (List.map
                   (fun n -> J.Str n)
                   stats.Mm_lp.Solver.warm_applied) );
            ( "warm_mismatches",
              J.Num (float_of_int stats.Mm_lp.Solver.warm_mismatches) );
          ] );
      ( "fragmentation",
        J.Num (float_of_int (Detailed.fragmentation o.Mapper.mapping)) );
      ( "instances_used",
        J.List
          (List.map
             (fun (ti, c) ->
               J.Obj
                 [
                   ( "type",
                     J.Str
                       (Mm_arch.Board.bank_type board ti)
                         .Mm_arch.Bank_type.name );
                   ("count", J.Num (float_of_int c));
                 ])
             (Detailed.instances_used o.Mapper.mapping)) );
      ("assignment", J.List assignment);
      ("placements", J.List (List.map placement o.Mapper.mapping.Detailed.placements));
    ]
