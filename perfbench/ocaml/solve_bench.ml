(* The two serial solve workloads: table3-complete (the paper's
   headline sweep through Mapper.run) and s3-tree (one scale tier
   through Solver.solve under a fixed node budget). *)

open Common
module M = Mm_mapping
module Gen = Mm_workload.Gen
module Bb = Mm_lp.Branch_bound
module Solver = Mm_lp.Solver
module Trace = Mm_obs.Trace
module J = Mm_obs.Json

(* ---- table3-complete --------------------------------------------------- *)

(* Proved-optimal objective of each Mm_workload.Table3.points entry at
   its pinned seed and default knobs. Global and complete must both
   reach it: the paper's claim that the global/detailed split keeps
   the optimum. *)
let table3_reference =
  [|
    302649.; 458822.; 297826.; 810398.; 678153.; 752585.; 78985.; 568072.;
    820457.;
  |]

(* Board and design text of every point: the inputs of
   [mmap solve --json]. *)
let render_table3 () =
  Array.of_list
    (List.map
       (fun (p : Mm_workload.Table3.point) ->
         let b, d = Gen.instance p.Mm_workload.Table3.spec in
         (Mm_io.Board_file.to_string b, Mm_io.Design_file.to_string d))
       Mm_workload.Table3.points)

type point_run = {
  board : Mm_arch.Board.t;
  design : Mm_design.Design.t;
  outcome : M.Mapper.outcome;
  wire : string;
  decode_s : float;
  report_s : float;
  encode_s : float;
  total_s : float;
}

(* One point from text to the encoded report, as [mmap solve --json]
   does it, minus the disk. *)
let run_point ?(trace = Trace.disabled) method_ (board_text, design_text) =
  let t0 = now () in
  match
    (Mm_io.Board_file.parse board_text, Mm_io.Design_file.parse design_text)
  with
  | Error e, _ | _, Error e -> Error ("parse: " ^ e)
  | Ok board, Ok design -> (
      let t1 = now () in
      let options = M.Mapper.options ~trace () in
      match M.Mapper.run ~method_ ~options board design with
      | Error e -> Error (M.Mapper.error_to_string e)
      | Ok outcome ->
          let t2 = now () in
          let json = M.Report.to_json (M.Report.of_outcome board design outcome) in
          let t3 = now () in
          let wire = J.to_string json in
          let t4 = now () in
          Ok
            {
              board;
              design;
              outcome;
              wire;
              decode_s = t1 -. t0;
              report_s = t3 -. t2;
              encode_s = t4 -. t3;
              total_s = t4 -. t0;
            })

let check_point tally what i = function
  | Error msg -> record_op tally what [ (msg, false) ]
  | Ok r ->
      let o = r.outcome in
      let reference = table3_reference.(i) in
      record_op tally what
        [
          ( "proved optimal",
            o.M.Mapper.ilp_result.Solver.mip.Bb.status = Bb.Optimal );
          ( Printf.sprintf "objective %.6f, reference %.6f" o.M.Mapper.objective
              reference,
            obj_eq o.M.Mapper.objective reference );
          ( "assignment feasible",
            M.Validate.assignment_feasible r.board r.design o.M.Mapper.assignment
            = [] );
          ("report encoded", String.length r.wire > 0);
        ]

let sweep ?trace texts =
  Array.map (run_point ?trace M.Mapper.Complete_flat) texts

let check_sweep tally label results =
  Array.iteri
    (fun i r ->
      ignore (check_point tally (Printf.sprintf "%s point %d" label i) i r))
    results

(* Whole passes of [f]: at least one, then more while another pass of
   the last one's length still fits in [seconds]. *)
let repeat_for seconds f =
  let start = now () in
  let rec go acc =
    let r, dt = timed f in
    let acc = (r, dt) :: acc in
    if now () -. start +. dt <= seconds then go acc else List.rev acc
  in
  go []

(* Median of [k] set-ups, and the last one's product. *)
let setup_median k f =
  let reps = List.init k (fun _ -> timed f) in
  (fst (List.nth reps (k - 1)), median (List.map snd reps))

let formulation_build_seconds method_ board design =
  let module F = (val M.Mapper.formulation method_) in
  let o = M.Mapper.default_options in
  let ctx =
    M.Formulation.ctx ~weights:o.M.Mapper.weights
      ~access_model:o.M.Mapper.access_model ~port_model:o.M.Mapper.port_model
      ~arbitration:o.M.Mapper.arbitration board design
  in
  snd (timed (fun () -> ignore (F.build ctx)))

(* The bench's own timer around the formulation build, once per
   attempt of a traced run. *)
let add_formulation_build l method_ board design (o : M.Mapper.outcome) =
  Layers.add l "formulation.build_s"
    (float_of_int (List.length o.M.Mapper.attempts)
    *. formulation_build_seconds method_ board design)

(* Points the untraced run times: all but the two largest. Those take
   about four fifths of a sweep as two single solves of 10-20 s, too
   long to repeat within a run, and a single long solve reads 15-25%
   apart from run to run on a host whose speed drifts. They are solved
   by complete in the traced run and by global in every run. *)
let table3_timed = 7

let table3 run =
  let tally = tally () and m = metrics () in
  print_record run
    [
      ("points", J.Num (float_of_int (Array.length table3_reference)));
      ("timed_points", J.Num (float_of_int table3_timed));
      ("method", J.Str "complete");
      ("parallelism", J.Num 1.);
    ];
  (* set-up is timed again between the timed solves, so its median
     spans the whole run *)
  let texts, setup0 = timed render_table3 in
  let setups = ref [ setup0 ] in
  (* the optimality-preservation check: global reaches the same optimum *)
  Array.iteri
    (fun i txt ->
      ignore
        (check_point tally
           (Printf.sprintf "global point %d" i)
           i
           (run_point M.Mapper.Global_detailed txt)))
    texts;
  if not run.trace then begin
    (* round-robin sweeps over the timed points. Each point's figures
       are its fastest solve in the run: the work is serial and
       deterministic, so the spread between a point's solves is the
       host's, which slows by up to 1.7x for seconds to minutes. *)
    let small = Array.sub texts 0 table3_timed in
    let samples = Array.make table3_timed [] in
    (* the peak after the first sweep: later sweeps only add heap
       growth that depends on how many fit in the run *)
    let rss = ref nan in
    let sweeps =
      repeat_for run.seconds (fun () ->
          Array.iteri
            (fun i txt ->
              let r = run_point M.Mapper.Complete_flat txt in
              ignore
                (check_point tally (Printf.sprintf "timed point %d" i) i r);
              Result.iter (fun r -> samples.(i) <- r :: samples.(i)) r;
              setups := snd (timed render_table3) :: !setups)
            small;
          if Float.is_nan !rss then rss := peak_rss_mb ())
    in
    let per_point f =
      Array.map (fun rs -> List.fold_left Float.min infinity (List.map f rs)) samples
    in
    let lat = per_point (fun r -> r.total_s) in
    let bb = per_point (fun r -> r.outcome.M.Mapper.ilp_result.Solver.mip.Bb.time) in
    let nodes =
      Array.map
        (function
          | r :: _ -> float_of_int r.outcome.M.Mapper.ilp_result.Solver.mip.Bb.nodes
          | [] -> 0.)
        samples
    in
    let sweep_s = Array.fold_left ( +. ) 0. lat in
    Printf.printf "timed sweeps %d over %d points\n%!" (List.length sweeps)
      table3_timed;
    add m "setup_s" (median !setups) "s";
    add m "solve_s" sweep_s "s";
    add m "nodes_per_s" (ratio (Array.fold_left ( +. ) 0. nodes) (Array.fold_left ( +. ) 0. bb)) "1/s";
    add m "req_p50_ms" (1e3 *. median (Array.to_list lat)) "ms";
    add m "req_p99_ms" (1e3 *. Array.fold_left Float.max 0. lat) "ms";
    add m "goodput_rps" (ratio (float_of_int table3_timed) sweep_s) "req/s";
    add m "peak_rss_mb" !rss "MB"
  end
  else begin
    (* the tracing overhead is taken on the timed points only, which
       keeps the run short *)
    let untraced = sweep (Array.sub texts 0 table3_timed) in
    check_sweep tally "untraced sweep" untraced;
    let point_s rs =
      Array.fold_left
        (fun acc -> function Ok r -> acc +. r.total_s | Error _ -> acc)
        0. rs
    in
    let l = Layers.create () in
    let runs = ref [] in
    let traced =
      Array.mapi
        (fun i txt ->
          let tr = Trace.create () in
          let r = run_point ~trace:tr M.Mapper.Complete_flat txt in
          runs := (i, r, Layers.events_of tr) :: !runs;
          r)
        texts
    in
    List.iter
      (fun (i, r, events) ->
        ignore (check_point tally (Printf.sprintf "traced point %d" i) i r);
        match r with
        | Error _ -> ()
        | Ok r ->
            Layers.add_mapper l events r.outcome;
            add_formulation_build l M.Mapper.Complete_flat r.board r.design
              r.outcome;
            Layers.add_request l ~decode:r.decode_s ~report:r.report_s
              ~encode:r.encode_s
              ~unattributed:
                (r.total_s -. r.decode_s -. Layers.phase events "ilp"
                -. r.outcome.M.Mapper.detailed_seconds -. r.report_s
                -. r.encode_s)
              ())
      !runs;
    Layers.set l "trace.overhead_frac"
      ((point_s (Array.sub traced 0 table3_timed) /. point_s untraced) -. 1.);
    Layers.emit m l
  end;
  (tally, m)

(* ---- s3-tree ------------------------------------------------------------- *)

let s3_tier =
  List.find (fun t -> t.Gen.tier_name = "s3") Gen.scale_tiers

(* Fixed node budget: every run explores the same tree prefix (the
   serial schedule is deterministic), about two thirds of the solve's
   time; the root phases take the rest. *)
let s3_nodes = 550

type s3 = {
  board : Mm_arch.Board.t;
  design : Mm_design.Design.t;
  build : M.Global_ilp.build;
}

let parse_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let s3_setup_reps = 3

(* Generate, render, parse back and build: the set-up, with the build
   also timed on its own. *)
let s3_setup () =
  let b, d = Gen.tier_instance s3_tier in
  let board =
    parse_or_fail "board" (Mm_io.Board_file.parse (Mm_io.Board_file.to_string b))
  in
  let design =
    parse_or_fail "design"
      (Mm_io.Design_file.parse (Mm_io.Design_file.to_string d))
  in
  let build, build_s = timed (fun () -> M.Global_ilp.build board design) in
  ({ board; design; build = parse_or_fail "build" build }, build_s)

(* A feasible assignment found greedily (largest segments first, onto
   the type with the most port slack left), so the tree's bound can be
   checked from above without an incumbent: the budgeted search finds
   none on this tier. *)
let s3_witness s =
  let board = s.board and design = s.design in
  let nd = Mm_design.Design.num_segments design in
  let nt = Mm_arch.Board.num_types board in
  let bank t = Mm_arch.Board.bank_type board t in
  let cliques = Array.of_list (M.Global_ilp.capacity_cliques design) in
  let port_total = Array.init nt (fun t -> Mm_arch.Bank_type.total_ports (bank t)) in
  let port_left = Array.copy port_total in
  let cap_left =
    Array.map
      (fun _ -> Array.init nt (fun t -> Mm_arch.Bank_type.total_capacity_bits (bank t)))
      cliques
  in
  let member = Array.make nd [] in
  Array.iteri (fun k c -> List.iter (fun d -> member.(d) <- k :: member.(d)) c) cliques;
  let order = Array.init nd Fun.id in
  let bits d = Mm_design.Segment.bits (Mm_design.Design.segment design d) in
  Array.stable_sort (fun a b -> compare (bits b) (bits a)) order;
  let a = Array.make nd (-1) in
  Array.iter
    (fun d ->
      let best = ref (-1) and best_slack = ref neg_infinity in
      for t = 0 to nt - 1 do
        let c = s.build.M.Global_ilp.coeffs.(d).(t) in
        let need = M.Preprocess.consumed_bits c in
        if
          M.Preprocess.fits (Mm_design.Design.segment design d) (bank t)
          && c.M.Preprocess.cp <= port_left.(t)
          && List.for_all (fun k -> need <= cap_left.(k).(t)) member.(d)
        then begin
          let slack =
            float_of_int (port_left.(t) - c.M.Preprocess.cp)
            /. float_of_int port_total.(t)
          in
          if slack > !best_slack then begin
            best := t;
            best_slack := slack
          end
        end
      done;
      let t = !best in
      if t >= 0 then begin
        let c = s.build.M.Global_ilp.coeffs.(d).(t) in
        a.(d) <- t;
        port_left.(t) <- port_left.(t) - c.M.Preprocess.cp;
        List.iter
          (fun k ->
            cap_left.(k).(t) <- cap_left.(k).(t) - M.Preprocess.consumed_bits c)
          member.(d)
      end)
    order;
  if Array.exists (fun t -> t < 0) a then None
  else if M.Validate.assignment_feasible board design a <> [] then None
  else Some (M.Global_ilp.assignment_cost board design a)

let s3_options ?(trace = Trace.disabled) nodes =
  Solver.options ~trace ~bb:(Bb.options ~node_limit:nodes ()) ()

let check_s3 tally what s witness (r : Solver.result) =
  let mip = r.Solver.mip in
  let bound = mip.Bb.best_bound in
  let below x = bound <= x +. (1e-6 *. Float.max 1. (Float.abs x)) in
  let incumbent_ok =
    match (mip.Bb.solution, mip.Bb.objective) with
    | None, _ -> true
    | Some x, Some obj ->
        let a = M.Global_ilp.assignment_of_solution s.build x in
        M.Validate.assignment_feasible s.board s.design a = [] && below obj
    | Some _, None -> false
  in
  record_op tally what
    [
      ( "stopped at the node budget",
        mip.Bb.status = Bb.Optimal
        || (mip.Bb.status = Bb.Feasible || mip.Bb.status = Bb.Unknown)
           && mip.Bb.nodes = s3_nodes );
      ("best bound finite", Float.is_finite bound);
      ( "best bound at most the witness cost",
        match witness with Some w -> below w | None -> false );
      ("incumbent feasible and not below the bound", incumbent_ok);
    ]

let s3_tree run =
  let tally = tally () and m = metrics () in
  let spec = s3_tier.Gen.spec in
  print_record run
    [
      ("tier", J.Str s3_tier.Gen.tier_name);
      ("segments", J.Num (float_of_int spec.Gen.segments));
      ("banks", J.Num (float_of_int spec.Gen.banks));
      ("node_limit", J.Num (float_of_int s3_nodes));
      ("parallelism", J.Num 1.);
      ("setup_reps", J.Num (float_of_int s3_setup_reps));
    ];
  let (s, build_s), setup_s = setup_median s3_setup_reps s3_setup in
  let witness = s3_witness s in
  ignore
    (record_op tally "greedy witness"
       [ ("feasible assignment found", witness <> None) ]);
  let p = s.build.M.Global_ilp.problem in
  let solve ?trace () = Solver.solve ~options:(s3_options ?trace s3_nodes) p in
  if not run.trace then begin
    let reps = repeat_for run.seconds solve in
    let ok_walls =
      List.filter_map
        (fun (r, dt) ->
          if check_s3 tally "budgeted solve" s witness r then Some dt else None)
        reps
    in
    let walls = List.map snd reps in
    let nodes = (fst (List.hd reps)).Solver.mip.Bb.nodes in
    add m "setup_s" setup_s "s";
    add m "solve_s" (median walls) "s";
    add m "nodes_per_s" (ratio (float_of_int nodes) (median walls)) "1/s";
    add m "req_p50_ms" (1e3 *. median walls) "ms";
    add m "req_p99_ms" (1e3 *. percentile walls 0.99) "ms";
    add m "goodput_rps" (ratio (float_of_int (List.length ok_walls)) (sum walls)) "req/s";
    add m "peak_rss_mb" (peak_rss_mb ()) "MB"
  end
  else begin
    (* a root-only solve first grows the heap, so neither timed pass
       below pays for it *)
    ignore (Solver.solve ~options:(s3_options 0) p);
    let r, u_wall = timed solve in
    ignore (check_s3 tally "untraced solve" s witness r);
    let tr = Trace.create () in
    let r, t_wall = timed (fun () -> solve ~trace:tr ()) in
    ignore (check_s3 tally "traced solve" s witness r);
    let l = Layers.create () in
    Layers.add_solve l (Layers.events_of tr) r;
    Layers.set l "formulation.build_s" build_s;
    Layers.set l "trace.overhead_frac" ((t_wall /. u_wall) -. 1.);
    Layers.emit m l
  end;
  (tally, m)
