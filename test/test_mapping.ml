open Mm_mapping

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 2026 |])
    (QCheck.Test.make ~count ~name gen prop)

let seg ?reads ?writes name depth width =
  Mm_design.Segment.make ?reads ?writes ~name ~depth ~width ()

(* --- Preprocess: Fig. 3 ---------------------------------------------------- *)

let test_consumed_ports_fig3 () =
  (* 3-port 16-word bank, the Table 2 example *)
  let cp w = Preprocess.consumed_ports ~words:w ~bank_depth:16 ~ports:3 () in
  Alcotest.(check int) "16 words take all 3" 3 (cp 16);
  Alcotest.(check int) "8 words take 2" 2 (cp 8);
  Alcotest.(check int) "4 words take 1" 1 (cp 4);
  Alcotest.(check int) "1 word takes 1" 1 (cp 1);
  Alcotest.(check int) "0 words take 0" 0 (cp 0);
  (* non-power-of-two rounds up first: 5 -> 8 -> 2 ports *)
  Alcotest.(check int) "5 words round to 8" 2 (cp 5);
  (* oversize fragments take the whole bank *)
  Alcotest.(check int) "17 words take all" 3 (cp 17)

let test_consumed_ports_two_port_exact () =
  (* for Pt = 2 the estimate is exact: two half-banks fit *)
  let cp w = Preprocess.consumed_ports ~words:w ~bank_depth:16 ~ports:2 () in
  Alcotest.(check int) "half bank takes 1 of 2" 1 (cp 8);
  Alcotest.(check int) "full bank takes 2" 2 (cp 16)

let prop_consumed_ports_monotone =
  qtest "consumed_ports is monotone in words"
    QCheck.(pair (int_range 0 200) (int_range 1 3))
    (fun (w, p) ->
      let f x = Preprocess.consumed_ports ~words:x ~bank_depth:64 ~ports:p () in
      f w <= f (w + 1))

let prop_consumed_ports_bounds =
  qtest "consumed_ports stays within [0, ports] and is 0 only at 0"
    QCheck.(pair (int_range 0 5000) (pair (int_range 0 6) (int_range 1 4)))
    (fun (w, (dexp, p)) ->
      let depth = 16 lsl dexp in
      let e = Preprocess.consumed_ports ~words:w ~bank_depth:depth ~ports:p () in
      e >= 0 && e <= p && (e = 0) = (w = 0))

let prop_consumed_ports_never_underestimates =
  (* the fraction of the bank occupied, times ports, never exceeds the
     estimate: EP >= ceil_pow2(w)/depth * p *)
  qtest "consumed_ports >= proportional share"
    QCheck.(pair (int_range 1 64) (int_range 1 4))
    (fun (w, p) ->
      let depth = 64 in
      let e = Preprocess.consumed_ports ~words:w ~bank_depth:depth ~ports:p () in
      float_of_int e
      >= float_of_int (Mm_util.Ints.ceil_pow2 w) /. float_of_int depth *. float_of_int p
         -. 1e-9)

(* --- Preprocess: Fig. 2 / Section 4.1.1 -------------------------------------- *)

let fig2_bank () = Mm_arch.Devices.paper_example_bank ()

let test_fig2_coefficients () =
  (* the worked example: 55x17 onto 3-port 128x1/64x2/32x4/16x8 banks *)
  let c = Preprocess.coeffs (seg "ds" 55 17) (fig2_bank ()) in
  Alcotest.(check string) "alpha" "16x8" (Mm_arch.Config.to_string c.Preprocess.alpha);
  (match c.Preprocess.beta with
  | Some b -> Alcotest.(check string) "beta" "128x1" (Mm_arch.Config.to_string b)
  | None -> Alcotest.fail "beta expected");
  Alcotest.(check int) "FP" 18 c.Preprocess.fp;
  Alcotest.(check int) "WP" 3 c.Preprocess.wp;
  Alcotest.(check int) "DP" 4 c.Preprocess.dp;
  Alcotest.(check int) "WDP" 1 c.Preprocess.wdp;
  Alcotest.(check int) "CP" 26 c.Preprocess.cp;
  Alcotest.(check int) "CW" 17 c.Preprocess.cw;
  Alcotest.(check int) "CD" 56 c.Preprocess.cd;
  Alcotest.(check int) "consumed bits" 952 (Preprocess.consumed_bits c)

let test_exact_fit_no_beta () =
  (* width divides exactly: no beta, no width strips *)
  let c = Preprocess.coeffs (seg "d" 32 8) (fig2_bank ()) in
  Alcotest.(check bool) "no beta" true (c.Preprocess.beta = None);
  Alcotest.(check int) "WP" 0 c.Preprocess.wp;
  Alcotest.(check int) "WDP" 0 c.Preprocess.wdp;
  (* 32 words at 16x8: 2 full instances, all 3 ports each *)
  Alcotest.(check int) "CP" 6 c.Preprocess.cp;
  Alcotest.(check int) "CW" 8 c.Preprocess.cw;
  Alcotest.(check int) "CD" 32 c.Preprocess.cd

let test_narrow_segment () =
  (* width below the widest: alpha is the snuggest config *)
  let c = Preprocess.coeffs (seg "d" 10 3) (fig2_bank ()) in
  Alcotest.(check string) "alpha 32x4" "32x4"
    (Mm_arch.Config.to_string c.Preprocess.alpha);
  (* full_cols = 0, everything in the remainder column at beta = 32x4 *)
  Alcotest.(check int) "CW" 4 c.Preprocess.cw;
  Alcotest.(check int) "CD" 16 c.Preprocess.cd;
  (* 10 -> 16 words of 32: half an instance at 3 ports -> 2 ports *)
  Alcotest.(check int) "CP" 2 c.Preprocess.cp

let test_single_config_bank () =
  let sram = Mm_arch.Devices.offchip_sram ~depth:1024 ~width:32 () in
  let c = Preprocess.coeffs (seg "d" 100 16) sram in
  Alcotest.(check string) "alpha" "1024x32" (Mm_arch.Config.to_string c.Preprocess.alpha);
  Alcotest.(check int) "CP" 1 c.Preprocess.cp;
  Alcotest.(check int) "CW" 32 c.Preprocess.cw;
  Alcotest.(check int) "CD" 128 c.Preprocess.cd

let test_fits () =
  let bank = fig2_bank () in
  Alcotest.(check bool) "small fits" true (Preprocess.fits (seg "s" 16 8) bank);
  Alcotest.(check bool) "oversized fails" false
    (Preprocess.fits (seg "big" 100000 32) bank)

(* --- Preprocess: Table 2 ------------------------------------------------------ *)

let test_table2_options () =
  let opts = Preprocess.allocation_options ~ports:3 ~depth:16 () in
  (* all rows are decreasing power-of-two-or-zero triples summing <= 16 *)
  List.iter
    (fun (alloc, _) ->
      Alcotest.(check int) "three ports" 3 (List.length alloc);
      Alcotest.(check bool) "sum within depth" true
        (Mm_util.Ints.sum alloc <= 16);
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a >= b && decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "decreasing" true (decreasing alloc);
      List.iter
        (fun w ->
          Alcotest.(check bool) "pow2 or zero" true
            (w = 0 || Mm_util.Ints.is_pow2 w))
        alloc)
    opts;
  (* the paper's example rows *)
  let find alloc = List.assoc alloc opts in
  Alcotest.(check bool) "(16,0,0) accepted" true (find [ 16; 0; 0 ]);
  Alcotest.(check bool) "(8,8,0) rejected (the paper's example)" false
    (find [ 8; 8; 0 ]);
  Alcotest.(check bool) "(8,4,0) accepted" true (find [ 8; 4; 0 ]);
  Alcotest.(check bool) "(4,4,4) accepted" true (find [ 4; 4; 4 ]);
  Alcotest.(check bool) "(1,1,1) accepted" true (find [ 1; 1; 1 ])

let test_table2_two_ports_no_overestimate () =
  (* with two ports the (8,8) split is accepted: the estimate is exact *)
  let opts = Preprocess.allocation_options ~ports:2 ~depth:16 () in
  Alcotest.(check bool) "(8,8) accepted" true (List.assoc [ 8; 8 ] opts)

(* --- Cost ----------------------------------------------------------------------- *)

let test_cost_components () =
  let bank =
    Mm_arch.Bank_type.make ~name:"t" ~instances:2 ~ports:1
      ~configs:[ Mm_arch.Config.make ~depth:1024 ~width:16 ]
      ~read_latency:2 ~write_latency:3 ~pins_traversed:2
  in
  let s = seg ~reads:10 ~writes:20 "s" 100 16 in
  (* uniform: Dd * (RL + WL) = 100 * 5 *)
  Alcotest.(check (float 1e-9)) "latency uniform" 500.0
    (Cost.latency_cost Cost.Uniform s bank);
  (* profiled: 10*2 + 20*3 *)
  Alcotest.(check (float 1e-9)) "latency profiled" 80.0
    (Cost.latency_cost Cost.Profiled s bank);
  Alcotest.(check (float 1e-9)) "pin delay uniform" 200.0
    (Cost.pin_delay_cost Cost.Uniform s bank);
  Alcotest.(check (float 1e-9)) "pin delay profiled" 60.0
    (Cost.pin_delay_cost Cost.Profiled s bank);
  let c = Preprocess.coeffs s bank in
  (* CD = 128, CW = 16 -> (7 + 16) * 2 *)
  Alcotest.(check (float 1e-9)) "pin io" 46.0 (Cost.pin_io_cost c s bank);
  Alcotest.(check (float 1e-9)) "weighted total" 746.0
    (Cost.assignment_cost Cost.default_weights Cost.Uniform c s bank)

let test_cost_onchip_free_pins () =
  let bank = Mm_arch.Devices.virtex_blockram ~instances:1 () in
  let s = seg "s" 64 8 in
  let c = Preprocess.coeffs s bank in
  Alcotest.(check (float 1e-9)) "no pin delay on chip" 0.0
    (Cost.pin_delay_cost Cost.Uniform s bank);
  Alcotest.(check (float 1e-9)) "no pin io on chip" 0.0
    (Cost.pin_io_cost c s bank)

(* --- Fragments (Fig. 2 decomposition invariants) --------------------------------- *)

let segment_gen =
  QCheck.make
    QCheck.Gen.(
      let* depth = int_range 1 600 in
      let* width = int_range 1 40 in
      return (depth, width))

let prop_fragments_match_coefficients =
  qtest ~count:400 "fragment decomposition sums to CP and CW*CD" segment_gen
    (fun (depth, width) ->
      let bank = fig2_bank () in
      let s = seg "s" depth width in
      let c = Preprocess.coeffs s bank in
      let frags = Detailed.fragments_of ~segment:0 s bank in
      let ports = Mm_util.Ints.sum_by (fun f -> f.Detailed.ports_needed) frags in
      let bits = Mm_util.Ints.sum_by (fun f -> f.Detailed.footprint_bits) frags in
      ports = c.Preprocess.cp && bits = Preprocess.consumed_bits c)

let prop_fragments_on_virtex =
  qtest ~count:400 "fragment invariants on the Virtex BlockRAM" segment_gen
    (fun (depth, width) ->
      let bank = Mm_arch.Devices.virtex_blockram ~instances:64 () in
      let s = seg "s" depth width in
      let c = Preprocess.coeffs s bank in
      let frags = Detailed.fragments_of ~segment:0 s bank in
      Mm_util.Ints.sum_by (fun f -> f.Detailed.ports_needed) frags = c.Preprocess.cp
      && Mm_util.Ints.sum_by (fun f -> f.Detailed.footprint_bits) frags
         = Preprocess.consumed_bits c
      && List.for_all
           (fun f -> Mm_util.Ints.is_pow2 f.Detailed.rounded_words)
           frags
      && List.for_all
           (fun f -> f.Detailed.words <= f.Detailed.rounded_words)
           frags)

let prop_fragment_count_matches_rectangle =
  qtest ~count:400 "fragment counts follow the Fig. 2 rectangle" segment_gen
    (fun (depth, width) ->
      let bank = fig2_bank () in
      let s = seg "s" depth width in
      let c = Preprocess.coeffs s bank in
      let frags = Detailed.fragments_of ~segment:0 s bank in
      let count part =
        List.length (List.filter (fun f -> f.Detailed.part = part) frags)
      in
      let da = c.Preprocess.alpha.Mm_arch.Config.depth in
      let wa = c.Preprocess.alpha.Mm_arch.Config.width in
      let full_rows = depth / da and full_cols = width / wa in
      let d_rem = depth mod da and w_rem = width mod wa in
      count Detailed.Full = full_rows * full_cols
      && count Detailed.Width_strip = (if w_rem = 0 then 0 else full_rows)
      && count Detailed.Depth_strip = (if d_rem = 0 then 0 else full_cols)
      && count Detailed.Corner = (if w_rem = 0 || d_rem = 0 then 0 else 1))

(* --- Detailed placement + Validate ------------------------------------------------ *)

let small_board () =
  Mm_arch.Board.make ~name:"small"
    [
      Mm_arch.Devices.virtex_blockram ~instances:6 ();
      Mm_arch.Devices.offchip_sram ~instances:2 ~depth:16384 ~width:32 ();
    ]

let test_detailed_greedy_legal () =
  let board = small_board () in
  let design =
    Mm_design.Design.make ~name:"d"
      [ seg "a" 200 8; seg "b" 100 16; seg "c" 4000 32; seg "d" 64 4 ]
  in
  match Global_ilp.solve board design with
  | Error _ -> Alcotest.fail "global failed"
  | Ok (assignment, _) -> (
      match Detailed.run board design assignment with
      | Error f -> Alcotest.fail f.Detailed.reason
      | Ok mapping ->
          Alcotest.(check (list string)) "no violations" []
            (List.map
               (fun v -> v.Validate.message)
               (Validate.check board design mapping)))

let test_detailed_overlap_shares_storage () =
  (* Lifetime-disjoint segments share address space through different
     ports of the same instance. Note that under the Fig. 3 model port
     sharing is never allowed (the paper's no-arbitration rule), and
     since a fragment's port count is at least its capacity fraction
     times the port count, the port budget always dominates: overlap
     shares bits, it cannot rescue an otherwise port-infeasible
     assignment. *)
  let bank = Mm_arch.Devices.paper_example_bank ~instances:1 () in
  let board = Mm_arch.Board.make ~name:"b" [ bank ] in
  let lt =
    Mm_design.Lifetime.make
      [|
        { Mm_design.Lifetime.birth = 0; death = 5 };
        { Mm_design.Lifetime.birth = 10; death = 15 };
        { Mm_design.Lifetime.birth = 0; death = 15 };
      |]
  in
  (* each 8x4 fragment: quarter of a 32x4-configured instance, 1 port *)
  let design =
    Mm_design.Design.make ~lifetimes:lt ~name:"d"
      [ seg "a" 8 4; seg "b" 8 4; seg "c" 8 4 ]
  in
  let assignment = [| 0; 0; 0 |] in
  (match Detailed.run ~allow_overlap:true board design assignment with
  | Ok mapping ->
      Alcotest.(check (list string)) "legal" []
        (List.map (fun v -> v.Validate.message) (Validate.check board design mapping));
      Alcotest.(check bool) "a and b share a slot" true
        (List.exists
           (fun (p : Detailed.placement) -> p.Detailed.shared)
           mapping.Detailed.placements);
      (* shared bits are charged once: 2 slots of 32 bits, not 3 *)
      let distinct_offsets =
        List.sort_uniq compare
          (List.map
             (fun (p : Detailed.placement) -> p.Detailed.offset_bits)
             mapping.Detailed.placements)
      in
      Alcotest.(check int) "two distinct slots" 2 (List.length distinct_offsets)
  | Error f -> Alcotest.fail f.Detailed.reason);
  (* the same placement without overlap remains legal, just wider *)
  match Detailed.run ~allow_overlap:false board design assignment with
  | Ok mapping ->
      Alcotest.(check bool) "legal without overlap" true
        (Validate.is_legal board design mapping)
  | Error f -> Alcotest.fail f.Detailed.reason

let test_detailed_conflicting_cannot_share () =
  let bank =
    Mm_arch.Bank_type.make ~name:"tiny" ~instances:1 ~ports:2
      ~configs:[ Mm_arch.Config.make ~depth:64 ~width:8 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board = Mm_arch.Board.make ~name:"b" [ bank ] in
  (* both alive at once: may not overlap; bank too small for both *)
  let design = Mm_design.Design.make ~name:"d" [ seg "a" 64 8; seg "b" 64 8 ] in
  match Detailed.run board design [| 0; 0 |] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f -> Alcotest.(check int) "fails on type 0" 0 f.Detailed.type_index

let test_validate_catches_corruption () =
  let board = small_board () in
  let design =
    Mm_design.Design.make ~name:"d" [ seg "a" 100 8; seg "b" 300 16 ]
  in
  match Global_ilp.solve board design with
  | Error _ -> Alcotest.fail "global failed"
  | Ok (assignment, _) -> (
      match Detailed.run board design assignment with
      | Error f -> Alcotest.fail f.Detailed.reason
      | Ok mapping ->
          (* corrupt: move every placement to instance 0 port 0 *)
          let corrupted =
            {
              mapping with
              Detailed.placements =
                List.map
                  (fun (p : Detailed.placement) ->
                    { p with Detailed.instance = 0; first_port = 0 })
                  mapping.Detailed.placements;
            }
          in
          if List.length mapping.Detailed.placements > 1 then
            Alcotest.(check bool) "corruption detected" false
              (Validate.is_legal board design corrupted))

(* --- Global ILP -------------------------------------------------------------------- *)

let test_global_prefers_onchip () =
  (* plenty of room everywhere: latency + pins should pull small segments
     on chip *)
  let board = small_board () in
  let design = Mm_design.Design.make ~name:"d" [ seg "hot" 128 8 ] in
  match Global_ilp.solve board design with
  | Error _ -> Alcotest.fail "solve failed"
  | Ok (a, _) ->
      let bt = Mm_arch.Board.bank_type board a.(0) in
      Alcotest.(check bool) "on chip" true (Mm_arch.Bank_type.is_on_chip bt)

let test_global_respects_capacity () =
  (* the big segment cannot fit on chip *)
  let board = small_board () in
  let design = Mm_design.Design.make ~name:"d" [ seg "big" 10000 32 ] in
  match Global_ilp.solve board design with
  | Error _ -> Alcotest.fail "solve failed"
  | Ok (a, _) ->
      let bt = Mm_arch.Board.bank_type board a.(0) in
      Alcotest.(check bool) "off chip" true (not (Mm_arch.Bank_type.is_on_chip bt))

let test_global_unmappable () =
  let bank =
    Mm_arch.Bank_type.make ~name:"tiny" ~instances:1 ~ports:1
      ~configs:[ Mm_arch.Config.make ~depth:8 ~width:1 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board = Mm_arch.Board.make ~name:"b" [ bank ] in
  let design = Mm_design.Design.make ~name:"d" [ seg "big" 4096 32 ] in
  match Global_ilp.solve board design with
  | Error (Global_ilp.No_feasible_type 0, _) -> ()
  | _ -> Alcotest.fail "expected No_feasible_type"

let test_global_forbidden_assignment () =
  let board = small_board () in
  let design = Mm_design.Design.make ~name:"d" [ seg "s" 128 8 ] in
  match Global_ilp.solve board design with
  | Error _ -> Alcotest.fail "first solve failed"
  | Ok (a1, _) -> (
      (* forbidding the optimum forces a different assignment *)
      match Global_ilp.solve ~forbidden:[ a1 ] board design with
      | Ok (a2, _) -> Alcotest.(check bool) "different" true (a1 <> a2)
      | Error _ -> Alcotest.fail "no alternative found")

let test_global_lifetime_capacity_cliques () =
  (* with lifetime info the capacity constraints are generated per
     maximal clique of the interval graph; without it a single
     all-segments group is used (the paper's conservative default) *)
  let segs = [ seg "a" 64 8; seg "b" 64 8 ] in
  let lt =
    Mm_design.Lifetime.make
      [|
        { Mm_design.Lifetime.birth = 0; death = 5 };
        { Mm_design.Lifetime.birth = 10; death = 15 };
      |]
  in
  let d_overlap = Mm_design.Design.make ~lifetimes:lt ~name:"d" segs in
  Alcotest.(check (list (list int)))
    "disjoint lifetimes give singleton cliques"
    [ [ 0 ]; [ 1 ] ]
    (Global_ilp.capacity_cliques d_overlap);
  let d_conflict = Mm_design.Design.make ~name:"d" segs in
  Alcotest.(check (list (list int)))
    "all-conflicting gives one group"
    [ [ 0; 1 ] ]
    (Global_ilp.capacity_cliques d_conflict)

let test_port_constraint_dominates_capacity () =
  (* Fig. 3 charges each fragment at least its capacity fraction times
     the port count, so any assignment satisfying the port budget also
     satisfies the storage budget: two full-bank segments are rejected
     by ports even with disjoint lifetimes *)
  let bank =
    Mm_arch.Bank_type.make ~name:"one" ~instances:1 ~ports:2
      ~configs:[ Mm_arch.Config.make ~depth:64 ~width:8 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board = Mm_arch.Board.make ~name:"b" [ bank ] in
  let lt =
    Mm_design.Lifetime.make
      [|
        { Mm_design.Lifetime.birth = 0; death = 5 };
        { Mm_design.Lifetime.birth = 10; death = 15 };
      |]
  in
  let design =
    Mm_design.Design.make ~lifetimes:lt ~name:"d" [ seg "a" 64 8; seg "b" 64 8 ]
  in
  match Global_ilp.solve board design with
  | Error (Global_ilp.Ilp_infeasible, _) -> ()
  | Ok _ -> Alcotest.fail "ports should forbid two full-bank segments"
  | Error _ -> Alcotest.fail "unexpected error"

(* --- The paper's central invariant: global == complete ----------------------------- *)

let instance_gen =
  QCheck.make
    QCheck.Gen.(
      let* segments = int_range 2 8 in
      let* seed = int_range 0 1_000_000 in
      return (segments, seed))

let prop_global_equals_complete =
  qtest ~count:25 "global and complete formulations share their optimum"
    instance_gen (fun (segments, seed) ->
      let rng = Mm_util.Prng.create seed in
      let board = Mm_workload.Gen.random_board rng in
      let design = Mm_workload.Gen.random_design rng ~segments board in
      match (Global_ilp.solve board design, Complete_ilp.solve board design) with
      | Ok (ag, _), Ok (ac, _) ->
          let cost a = Global_ilp.assignment_cost board design a in
          Float.abs (cost ag -. cost ac) <= 1e-6 *. Float.max 1.0 (cost ag)
      | Error (Global_ilp.Ilp_infeasible, _), Error (Global_ilp.Ilp_infeasible, _)
        ->
          true
      | ( Error (Global_ilp.No_feasible_type _, _),
          Error (Global_ilp.No_feasible_type _, _) ) ->
          true
      | _ -> false)

let prop_global_assignment_feasible =
  qtest ~count:40 "global assignments satisfy port and capacity budgets"
    instance_gen (fun (segments, seed) ->
      let rng = Mm_util.Prng.create (seed + 13) in
      let board = Mm_workload.Gen.random_board rng in
      let design = Mm_workload.Gen.random_design rng ~segments board in
      match Global_ilp.solve board design with
      | Ok (a, _) -> Validate.assignment_feasible board design a = []
      | Error _ -> true)


let prop_global_optimal_vs_enumeration =
  qtest ~count:40 "global ILP finds the cheapest feasible assignment"
    instance_gen (fun (segments, seed) ->
      let segments = min segments 5 in
      let rng = Mm_util.Prng.create (seed + 4242) in
      let board = Mm_workload.Gen.random_board rng in
      let design = Mm_workload.Gen.random_design rng ~segments board in
      let n = Mm_arch.Board.num_types board in
      let m = Mm_design.Design.num_segments design in
      (* enumerate all n^m assignments, keep the global-feasible ones *)
      let best = ref infinity in
      let a = Array.make m 0 in
      let rec enum d =
        if d = m then begin
          if Validate.assignment_feasible board design a = [] then begin
            let c = Global_ilp.assignment_cost board design a in
            if c < !best then best := c
          end
        end
        else
          for t = 0 to n - 1 do
            a.(d) <- t;
            enum (d + 1)
          done
      in
      enum 0;
      match Global_ilp.solve board design with
      | Ok (sol, _) ->
          let c = Global_ilp.assignment_cost board design sol in
          Float.abs (c -. !best) <= 1e-6 *. Float.max 1.0 !best
      | Error (Global_ilp.Ilp_infeasible, _) -> !best = infinity
      | Error (Global_ilp.No_feasible_type _, _) -> !best = infinity
      | Error _ -> false)

(* --- Mapper pipeline ----------------------------------------------------------------- *)

let prop_pipeline_produces_legal_mappings =
  qtest ~count:40 "global->detailed pipeline emits validator-clean mappings"
    instance_gen (fun (segments, seed) ->
      let rng = Mm_util.Prng.create (seed + 41) in
      let board = Mm_workload.Gen.random_board rng in
      let design = Mm_workload.Gen.random_design rng ~segments board in
      match Mapper.run board design with
      | Ok o -> Validate.is_legal board design o.Mapper.mapping
      | Error (Mapper.Unmappable _) -> true
      | Error (Mapper.Retries_exhausted _) -> true
      | Error Mapper.Solver_limit -> false)

let test_mapper_complete_path () =
  let board = small_board () in
  let design =
    Mm_design.Design.make ~name:"d" [ seg "a" 200 8; seg "b" 100 16 ]
  in
  match
    ( Mapper.run board design,
      Mapper.run ~method_:Mapper.Complete_flat board design )
  with
  | Ok g, Ok c ->
      Alcotest.(check (float 1e-6)) "same objective" g.Mapper.objective
        c.Mapper.objective;
      Alcotest.(check bool) "complete mapping legal" true
        (Validate.is_legal board design c.Mapper.mapping)
  | _ -> Alcotest.fail "both methods should succeed"

let test_mapper_ilp_detailed_engine () =
  let board = small_board () in
  let design =
    Mm_design.Design.make ~name:"d"
      [ seg "a" 200 8; seg "b" 100 16; seg "c" 64 4 ]
  in
  let options = Mapper.options ~detailed:Mapper.Ilp () in
  match Mapper.run ~options board design with
  | Ok o ->
      Alcotest.(check bool) "legal" true
        (Validate.is_legal board design o.Mapper.mapping)
  | Error e -> Alcotest.fail (Mapper.error_to_string e)


(* --- Section 6 extensions: improved port model + arbitration ------------------ *)

let test_improved_port_model_values () =
  let cp ?model w =
    Preprocess.consumed_ports ?model ~words:w ~bank_depth:16 ~ports:3 ()
  in
  (* the improved estimate accepts (8,8,0): one port per half-bank *)
  Alcotest.(check int) "improved half bank" 1 (cp ~model:Preprocess.Improved 8);
  Alcotest.(check int) "fig3 half bank" 2 (cp ~model:Preprocess.Fig3 8);
  Alcotest.(check int) "improved full bank" 3 (cp ~model:Preprocess.Improved 16);
  Alcotest.(check int) "improved tiny still needs one" 1
    (cp ~model:Preprocess.Improved 1);
  Alcotest.(check int) "improved zero" 0 (cp ~model:Preprocess.Improved 0)

let test_improved_accepts_all_table2_options () =
  let opts =
    Preprocess.allocation_options ~model:Preprocess.Improved ~ports:3 ~depth:16 ()
  in
  Alcotest.(check int) "no rejections" 0
    (List.length (List.filter (fun (_, ok) -> not ok) opts));
  Alcotest.(check bool) "(8,8,0) accepted" true (List.assoc [ 8; 8; 0 ] opts)

let prop_improved_never_exceeds_fig3 =
  qtest "improved port estimate <= Fig. 3 estimate, equal up to 2 ports"
    QCheck.(pair (int_range 0 300) (pair (int_range 0 5) (int_range 1 4)))
    (fun (w, (dexp, p)) ->
      let depth = 16 lsl dexp in
      let fig3 =
        Preprocess.consumed_ports ~model:Preprocess.Fig3 ~words:w
          ~bank_depth:depth ~ports:p ()
      in
      let improved =
        Preprocess.consumed_ports ~model:Preprocess.Improved ~words:w
          ~bank_depth:depth ~ports:p ()
      in
      improved <= fig3 && (p > 2 || improved = fig3))

let test_improved_model_enables_mapping () =
  (* two half-bank segments on a single 3-port bank: rejected by Fig. 3
     (2 + 2 = 4 > 3 ports), accepted by the improved model (1 + 1) *)
  let bank =
    Mm_arch.Bank_type.make ~name:"b" ~instances:1 ~ports:3
      ~configs:[ Mm_arch.Config.make ~depth:16 ~width:8 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board = Mm_arch.Board.make ~name:"board" [ bank ] in
  let design = Mm_design.Design.make ~name:"d" [ seg "a" 8 8; seg "b" 8 8 ] in
  (match Global_ilp.solve board design with
  | Error (Global_ilp.Ilp_infeasible, _) -> ()
  | _ -> Alcotest.fail "Fig. 3 model should reject");
  match Global_ilp.solve ~port_model:Preprocess.Improved board design with
  | Ok (a, _) -> (
      match Detailed.run ~port_model:Preprocess.Improved board design a with
      | Ok mapping ->
          Alcotest.(check bool) "legal under improved model" true
            (Validate.is_legal ~port_model:Preprocess.Improved board design mapping)
      | Error f -> Alcotest.fail f.Detailed.reason)
  | Error _ -> Alcotest.fail "improved model should accept"

let test_arbitration_enables_port_sharing () =
  (* two full-bank lifetime-disjoint segments on one dual-port bank:
     infeasible under the paper's no-arbitration rule, feasible with the
     Section 6 arbitration extension *)
  let bank =
    Mm_arch.Bank_type.make ~name:"one" ~instances:1 ~ports:2
      ~configs:[ Mm_arch.Config.make ~depth:64 ~width:8 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board = Mm_arch.Board.make ~name:"b" [ bank ] in
  let lt =
    Mm_design.Lifetime.make
      [|
        { Mm_design.Lifetime.birth = 0; death = 5 };
        { Mm_design.Lifetime.birth = 10; death = 15 };
      |]
  in
  let design =
    Mm_design.Design.make ~lifetimes:lt ~name:"d" [ seg "a" 64 8; seg "b" 64 8 ]
  in
  (match Global_ilp.solve board design with
  | Error (Global_ilp.Ilp_infeasible, _) -> ()
  | _ -> Alcotest.fail "no-arbitration model should reject");
  match Global_ilp.solve ~arbitration:true board design with
  | Error _ -> Alcotest.fail "arbitration model should accept"
  | Ok (a, _) -> (
      match Detailed.run ~allow_port_sharing:true board design a with
      | Error f -> Alcotest.fail f.Detailed.reason
      | Ok mapping ->
          Alcotest.(check bool) "legal with arbitration" true
            (Validate.is_legal ~arbitration:true board design mapping);
          Alcotest.(check bool) "illegal without arbitration" false
            (Validate.is_legal board design mapping))

let test_arbitration_still_blocks_conflicting () =
  (* overlapping lifetimes may NOT share ports even with arbitration *)
  let bank =
    Mm_arch.Bank_type.make ~name:"one" ~instances:1 ~ports:2
      ~configs:[ Mm_arch.Config.make ~depth:64 ~width:8 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board = Mm_arch.Board.make ~name:"b" [ bank ] in
  let lt =
    Mm_design.Lifetime.make
      [|
        { Mm_design.Lifetime.birth = 0; death = 10 };
        { Mm_design.Lifetime.birth = 5; death = 15 };
      |]
  in
  let design =
    Mm_design.Design.make ~lifetimes:lt ~name:"d" [ seg "a" 64 8; seg "b" 64 8 ]
  in
  match Global_ilp.solve ~arbitration:true board design with
  | Error (Global_ilp.Ilp_infeasible, _) -> ()
  | Ok _ -> Alcotest.fail "conflicting segments must not share"
  | Error _ -> Alcotest.fail "unexpected error"

let test_mapper_arbitration_pipeline () =
  let bank =
    Mm_arch.Bank_type.make ~name:"one" ~instances:2 ~ports:2
      ~configs:[ Mm_arch.Config.make ~depth:64 ~width:8 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board = Mm_arch.Board.make ~name:"b" [ bank ] in
  let lt =
    Mm_design.Lifetime.make
      [|
        { Mm_design.Lifetime.birth = 0; death = 5 };
        { Mm_design.Lifetime.birth = 10; death = 15 };
        { Mm_design.Lifetime.birth = 20; death = 25 };
        { Mm_design.Lifetime.birth = 0; death = 25 };
      |]
  in
  let design =
    Mm_design.Design.make ~lifetimes:lt ~name:"d"
      [ seg "a" 64 8; seg "b" 64 8; seg "c" 64 8; seg "d" 64 8 ]
  in
  let options = Mapper.options ~arbitration:true () in
  match Mapper.run ~options board design with
  | Ok o ->
      Alcotest.(check bool) "legal under arbitration" true
        (Validate.is_legal ~arbitration:true board design o.Mapper.mapping)
  | Error e -> Alcotest.fail (Mapper.error_to_string e)

let prop_improved_pipeline_legal =
  qtest ~count:30 "pipeline with improved port model emits legal mappings"
    instance_gen (fun (segments, seed) ->
      let rng = Mm_util.Prng.create (seed + 77) in
      let board = Mm_workload.Gen.random_board rng in
      let design = Mm_workload.Gen.random_design rng ~segments board in
      let options = Mapper.options ~port_model:Preprocess.Improved () in
      match Mapper.run ~options board design with
      | Ok o ->
          Validate.is_legal ~port_model:Preprocess.Improved board design
            o.Mapper.mapping
      | Error (Mapper.Unmappable _) | Error (Mapper.Retries_exhausted _) -> true
      | Error Mapper.Solver_limit -> false)

(* --- Report smoke -------------------------------------------------------------------- *)

let test_report_renders () =
  let board = small_board () in
  let design =
    Mm_design.Design.make ~name:"d" [ seg "a" 200 8; seg "b" 100 16 ]
  in
  match Mapper.run board design with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok o ->
      let s = Report.outcome board design o in
      Alcotest.(check bool) "non-empty" true (String.length s > 200)



(* --- multi-PU extension --------------------------------------------------------- *)

let test_multi_pu_cost () =
  (* a bank 0 pins from PU0 but 6 pins from PU1 *)
  let bank =
    Mm_arch.Bank_type.make_multi_pu ~name:"near0" ~instances:2 ~ports:1
      ~configs:[ Mm_arch.Config.make ~depth:1024 ~width:16 ]
      ~read_latency:1 ~write_latency:1 ~pu_pins:[ 0; 6 ]
  in
  Alcotest.(check int) "pus" 2 (Mm_arch.Bank_type.num_pus bank);
  Alcotest.(check int) "pu0" 0 (Mm_arch.Bank_type.pins_from bank 0);
  Alcotest.(check int) "pu1" 6 (Mm_arch.Bank_type.pins_from bank 1);
  Alcotest.(check int) "fallback" 0 (Mm_arch.Bank_type.pins_from bank 7);
  let s0 = Mm_design.Segment.make ~pu:0 ~name:"a" ~depth:100 ~width:16 () in
  let s1 = Mm_design.Segment.make ~pu:1 ~name:"b" ~depth:100 ~width:16 () in
  Alcotest.(check (float 1e-9)) "pu0 free" 0.0
    (Cost.pin_delay_cost Cost.Uniform s0 bank);
  Alcotest.(check (float 1e-9)) "pu1 pays" 600.0
    (Cost.pin_delay_cost Cost.Uniform s1 bank)

let test_multi_pu_assignment () =
  (* two symmetric SRAM pools, each adjacent to one PU; segments must be
     mapped next to their owners *)
  let near pu_pins name =
    Mm_arch.Bank_type.make_multi_pu ~name ~instances:2 ~ports:1
      ~configs:[ Mm_arch.Config.make ~depth:4096 ~width:16 ]
      ~read_latency:2 ~write_latency:2 ~pu_pins
  in
  let board =
    Mm_arch.Board.make ~name:"dual-pu"
      [ near [ 2; 6 ] "sram-near-pu0"; near [ 6; 2 ] "sram-near-pu1" ]
  in
  let design =
    Mm_design.Design.make ~name:"d"
      [
        Mm_design.Segment.make ~pu:0 ~name:"pu0_data" ~depth:1024 ~width:16 ();
        Mm_design.Segment.make ~pu:1 ~name:"pu1_data" ~depth:1024 ~width:16 ();
      ]
  in
  match Mapper.run board design with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok o ->
      let name d =
        (Mm_arch.Board.bank_type board o.Mapper.assignment.(d)).Mm_arch.Bank_type.name
      in
      Alcotest.(check string) "pu0 data near pu0" "sram-near-pu0" (name 0);
      Alcotest.(check string) "pu1 data near pu1" "sram-near-pu1" (name 1);
      Alcotest.(check bool) "legal" true (Validate.is_legal board design o.Mapper.mapping)

let test_multi_pu_rejects () =
  Alcotest.check_raises "empty pu_pins"
    (Invalid_argument "Bank_type.make_multi_pu: empty pu_pins") (fun () ->
      ignore
        (Mm_arch.Bank_type.make_multi_pu ~name:"x" ~instances:1 ~ports:1
           ~configs:[ Mm_arch.Config.make ~depth:8 ~width:1 ]
           ~read_latency:1 ~write_latency:1 ~pu_pins:[]));
  Alcotest.check_raises "negative pu"
    (Invalid_argument "Segment.make: negative pu") (fun () ->
      ignore (Mm_design.Segment.make ~pu:(-1) ~name:"x" ~depth:1 ~width:1 ()))

(* --- Report contents ----------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let test_report_contents () =
  let board = small_board () in
  let design =
    Mm_design.Design.make ~name:"d" [ seg "alpha" 200 8; seg "beta" 4000 32 ]
  in
  match Mapper.run board design with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok o ->
      let summary = Report.assignment_summary board design o.Mapper.assignment in
      Alcotest.(check bool) "summary names types" true (contains summary "BlockRAM");
      let costs = Report.cost_breakdown board design o.Mapper.assignment in
      Alcotest.(check bool) "costs name segments" true (contains costs "alpha");
      Alcotest.(check bool) "costs have total" true (contains costs "TOTAL");
      let placements = Report.placement_table board design o.Mapper.mapping in
      Alcotest.(check bool) "placements name segments" true (contains placements "beta")

let test_lifetime_chart () =
  let lt =
    Mm_design.Lifetime.make
      [|
        { Mm_design.Lifetime.birth = 0; death = 5 };
        { Mm_design.Lifetime.birth = 6; death = 9 };
      |]
  in
  let design =
    Mm_design.Design.make ~lifetimes:lt ~name:"d" [ seg "first" 8 8; seg "second" 8 8 ]
  in
  let chart = Report.lifetime_chart design in
  Alcotest.(check bool) "names both" true
    (contains chart "first" && contains chart "second");
  Alcotest.(check bool) "shows ranges" true (contains chart "[0, 5]");
  (* no lifetimes -> empty *)
  let bare = Mm_design.Design.make ~name:"d" [ seg "x" 8 8 ] in
  Alcotest.(check string) "empty without lifetimes" "" (Report.lifetime_chart bare)

let test_mapper_retry_budget () =
  (* the port-pairing trap: global admits 9 half-banks on 6 x 3-port
     instances, detailed fits only 6; with max_retries = 0 the pipeline
     must give up immediately with Retries_exhausted *)
  let bank =
    Mm_arch.Bank_type.make ~name:"tri" ~instances:2 ~ports:3
      ~configs:[ Mm_arch.Config.make ~depth:16 ~width:8 ]
      ~read_latency:1 ~write_latency:1 ~pins_traversed:0
  in
  let board = Mm_arch.Board.make ~name:"b" [ bank ] in
  let design =
    Mm_design.Design.make ~name:"d" [ seg "a" 8 8; seg "b" 8 8; seg "c" 8 8 ]
  in
  (* 3 half-banks: Fig. 3 charges 2 ports each = 6 <= 6 total ports, but
     only one fits per instance -> detailed fails *)
  let options = Mapper.options ~max_retries:0 () in
  match Mapper.run ~options board design with
  | Error (Mapper.Retries_exhausted _) -> ()
  | Error (Mapper.Unmappable _) -> ()
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok o ->
      (* acceptable alternative: a later-found legal assignment *)
      Alcotest.(check bool) "legal if it claims success" true
        (Validate.is_legal board design o.Mapper.mapping)

let test_fragmentation_metric () =
  let board = small_board () in
  (* one segment that must fragment (wider than 16 bits) and one that fits whole *)
  let design = Mm_design.Design.make ~name:"d" [ seg "wide" 256 24; seg "tiny" 16 8 ] in
  match Mapper.run board design with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok o ->
      let frags = List.length o.Mapper.mapping.Detailed.placements in
      Alcotest.(check bool) "fragmentation consistent" true
        (Detailed.fragmentation o.Mapper.mapping = frags - 2)


(* --- LP kernel guards ------------------------------------------------------ *)

let table3_instance i =
  Mm_workload.Gen.instance
    (List.nth Mm_workload.Table3.points i).Mm_workload.Table3.spec

let test_table3_complete_counts_pinned () =
  (* The serial tree of complete points 0-4, exactly: a rewrite of an LP
     kernel that changes one rounding moves some vertex, pivot or tie
     and with it these counts. (nodes, pivots, flips) per point. *)
  let pinned =
    [|
      (1, 356, 29); (1, 796, 50); (5, 1544, 80); (1, 1370, 76); (5, 1990, 75);
    |]
  in
  Array.iteri
    (fun i (nodes, pivots, flips) ->
      let board, design = table3_instance i in
      match Mapper.run ~method_:Mapper.Complete_flat board design with
      | Error e -> Alcotest.failf "point %d: %s" i (Mapper.error_to_string e)
      | Ok o ->
          let r = o.Mapper.ilp_result in
          let lp = r.Mm_lp.Solver.stats.Mm_lp.Solver.lp in
          let check what want got =
            Alcotest.(check int) (Printf.sprintf "point %d %s" i what) want got
          in
          check "nodes" nodes r.Mm_lp.Solver.mip.Mm_lp.Branch_bound.nodes;
          check "pivots" pivots lp.Mm_lp.Simplex.pivots;
          check "flips" flips lp.Mm_lp.Simplex.flips)
    pinned

(* The formulation builders' output, exactly: one digest over the MPS
   text of all nine Table-3 points, per method. A faster builder must
   keep every row, column, bound and coefficient and their order. *)
let test_table3_formulations_pinned () =
  let digest build =
    List.init (List.length Mm_workload.Table3.points) (fun i ->
        let board, design = table3_instance i in
        match build board design with
        | Ok p -> Mm_lp.Mps.to_string p
        | Error e -> Alcotest.failf "point %d: %s" i e)
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let global b d =
    Result.map (fun x -> x.Global_ilp.problem) (Global_ilp.build b d)
  in
  let complete b d =
    Result.map (fun x -> x.Complete_ilp.problem) (Complete_ilp.build b d)
  in
  Alcotest.(check string)
    "global MPS digest" "4582a547b010195bf9f051fdd51e23e6" (digest global);
  Alcotest.(check string)
    "complete MPS digest" "3c2e3be8820618f3a5637ef3a34f6828"
    (digest complete)

(* Both parsers read back every Table-3 model, global and complete, to
   the same problem: re-emitting the parsed model gives the MPS text it
   came from, byte for byte. The LP writer names a one-sided row
   [name_u] or [name_l] (it would split a ranged row in two; these
   models have none), so the LP read-back is compared with the MPS of
   the model under those names. Complete point 8 is a 4.5 MB MPS file
   with 117k nonzeros, so a parser that is not linear in its input
   shows here as a stall. *)
let test_table3_models_round_trip () =
  List.iteri
    (fun i _ ->
      let board, design = table3_instance i in
      let check what build =
        let p =
          match build with
          | Ok p -> p
          | Error e -> Alcotest.failf "%s %d: %s" what i e
        in
        let mps = Mm_lp.Mps.to_string p in
        let reemit via parse text =
          match parse text with
          | Ok q -> Mm_lp.Mps.to_string q
          | Error e -> Alcotest.failf "%s %d via %s: %s" what i via e
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s %d: MPS read-back re-emits the same MPS" what i)
          true
          (reemit "MPS" Mm_lp.Mps.parse mps = mps);
        let lp_names =
          Array.mapi
            (fun r name ->
              let lo = p.Mm_lp.Problem.row_lb.(r)
              and hi = p.Mm_lp.Problem.row_ub.(r) in
              if lo = hi then name
              else if Float.is_finite lo && Float.is_finite hi then
                Alcotest.failf "%s %d: ranged row %s" what i name
              else if Float.is_finite hi then name ^ "_u"
              else name ^ "_l")
            p.Mm_lp.Problem.row_names
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s %d: LP read-back re-emits the same MPS" what i)
          true
          (reemit "LP" Mm_lp.Lp_format.parse (Mm_lp.Lp_format.to_string p)
          = Mm_lp.Mps.to_string { p with Mm_lp.Problem.row_names = lp_names })
      in
      check "global"
        (Result.map (fun x -> x.Global_ilp.problem) (Global_ilp.build board design));
      check "complete"
        (Result.map
           (fun x -> x.Complete_ilp.problem)
           (Complete_ilp.build board design)))
    Mm_workload.Table3.points

(* Hot solves resume from the last root: on every global Table-3 point
   and on complete points 0-6, the third solve with one warm state
   carries the root cuts and the incumbent and proves the cold
   objective. *)
let test_table3_hot_solves_carry_the_root () =
  let check what build =
    let p =
      match build with Ok p -> p | Error e -> Alcotest.failf "%s: %s" what e
    in
    let objective (r : Mm_lp.Solver.result) =
      r.Mm_lp.Solver.mip.Mm_lp.Branch_bound.objective
    in
    let cold = Mm_lp.Solver.solve p in
    let w = Mm_lp.Solver.warm () in
    ignore (Mm_lp.Solver.solve ~warm:w p);
    ignore (Mm_lp.Solver.solve ~warm:w p);
    let hot = Mm_lp.Solver.solve ~warm:w p in
    Alcotest.(check (option (float 1e-6)))
      (what ^ " objective") (objective cold) (objective hot);
    let applied = hot.Mm_lp.Solver.stats.Mm_lp.Solver.warm_applied in
    List.iter
      (fun c ->
        Alcotest.(check bool)
          (Printf.sprintf "%s carries %s" what c)
          true (List.mem c applied))
      [ "cuts"; "incumbent" ]
  in
  List.iteri
    (fun i _ ->
      let board, design = table3_instance i in
      check
        (Printf.sprintf "global %d" i)
        (Result.map
           (fun b -> b.Global_ilp.problem)
           (Global_ilp.build board design));
      if i <= 6 then
        check
          (Printf.sprintf "complete %d" i)
          (Result.map
             (fun b -> b.Complete_ilp.problem)
             (Complete_ilp.build board design)))
    Mm_workload.Table3.points

let test_warm_resolve_allocation () =
  (* One branch-and-bound style re-solve: complete point 1's LP
     relaxation, optimal, then its first fractional column fixed at 0
     and re-solved from that basis. The pivot kernels allocate nothing
     per nonzero or per column, so minor-heap words per pivot stay near
     what the eta file and one refactorization need (~430 words);
     closures or boxed floats in a per-column loop read several
     thousand. *)
  let board, design = table3_instance 1 in
  let p =
    match Complete_ilp.build board design with
    | Ok b -> b.Complete_ilp.problem
    | Error e -> Alcotest.fail e
  in
  let module S = Mm_lp.Simplex in
  let sx = S.create p in
  Alcotest.(check bool) "root LP optimal" true (S.solve sx = S.Optimal);
  let x = S.primal sx in
  let j =
    let rec first j =
      if j >= Array.length x then Alcotest.fail "no fractional column"
      else if x.(j) > 1e-6 && x.(j) < 1.0 -. 1e-6 then j
      else first (j + 1)
    in
    first 0
  in
  let lb, _ = S.get_bounds sx j in
  S.set_bounds sx j lb 0.0;
  let pivots0 = (S.stats sx).S.pivots in
  let words0 = Gc.minor_words () in
  Alcotest.(check bool) "re-solve optimal" true
    (S.solve ~prefer_dual:true sx = S.Optimal);
  let words = Gc.minor_words () -. words0 in
  let pivots = (S.stats sx).S.pivots - pivots0 in
  Alcotest.(check bool) "re-solve pivots" true (pivots > 0);
  let per_pivot = words /. float_of_int pivots in
  if per_pivot > 1500.0 then
    Alcotest.failf "%.0f minor words per pivot over %d pivots (bound 1500)"
      per_pivot pivots

let test_global_ilp_through_mps () =
  (* the real global model survives an MPS round trip with its optimum *)
  let board, design =
    Mm_workload.Gen.instance
      (List.hd Mm_workload.Table3.points).Mm_workload.Table3.spec
  in
  match Global_ilp.build board design with
  | Error e -> Alcotest.fail e
  | Ok b -> (
      let text = Mm_lp.Mps.to_string b.Global_ilp.problem in
      match Mm_lp.Mps.parse text with
      | Error e -> Alcotest.fail e
      | Ok q ->
          let r1 = Mm_lp.Solver.solve b.Global_ilp.problem in
          let r2 = Mm_lp.Solver.solve q in
          (match
             ( r1.Mm_lp.Solver.mip.Mm_lp.Branch_bound.objective,
               r2.Mm_lp.Solver.mip.Mm_lp.Branch_bound.objective )
           with
          | Some a, Some b ->
              Alcotest.(check bool) "objectives agree" true
                (Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a))
          | _ -> Alcotest.fail "both should solve"))

let test_global_ilp_through_lp_format () =
  (* the LP-format writer emits a complete, well-formed model (smoke:
     non-empty sections for a real instance) *)
  let board, design =
    Mm_workload.Gen.instance
      (List.hd Mm_workload.Table3.points).Mm_workload.Table3.spec
  in
  match Global_ilp.build board design with
  | Error e -> Alcotest.fail e
  | Ok b ->
      let text = Mm_lp.Lp_format.to_string b.Global_ilp.problem in
      Alcotest.(check bool) "substantial" true (String.length text > 2000)


let test_detailed_ilp_direct () =
  let board = small_board () in
  let design =
    Mm_design.Design.make ~name:"d"
      [ seg "a" 200 8; seg "b" 100 16; seg "c" 64 4; seg "d" 300 8 ]
  in
  match Global_ilp.solve board design with
  | Error _ -> Alcotest.fail "global failed"
  | Ok (assignment, _) ->
      let run symmetry_breaking =
        Detailed_ilp.run
          ~options:(Detailed_ilp.options ~symmetry_breaking ())
          board design assignment
      in
      (match (run true, run false) with
      | Ok a, Ok b ->
          Alcotest.(check bool) "legal with symmetry breaking" true
            (Validate.is_legal board design a);
          Alcotest.(check bool) "legal without" true (Validate.is_legal board design b);
          (* both minimize instances: same count *)
          let count t = Mm_util.Ints.sum_by snd (Detailed.instances_used t) in
          Alcotest.(check int) "same instance count" (count a) (count b)
      | _ -> Alcotest.fail "detailed ILP failed")

let test_instances_used_and_parts () =
  let board = small_board () in
  let design = Mm_design.Design.make ~name:"d" [ seg "wide" 100 24 ] in
  match Mapper.run board design with
  | Error e -> Alcotest.fail (Mapper.error_to_string e)
  | Ok o ->
      (* a 24-bit segment on 16-bit-max BlockRAMs must produce a full
         column and a width strip *)
      let parts =
        List.sort_uniq compare
          (List.map
             (fun (p : Detailed.placement) -> p.Detailed.fragment.Detailed.part)
             o.Mapper.mapping.Detailed.placements)
      in
      Alcotest.(check bool) "has width strip or corner" true
        (List.mem Detailed.Width_strip parts || List.mem Detailed.Corner parts)


(* --- Parallel tree search through the whole pipeline --------------------------- *)

let spec_gen =
  QCheck.make
    ~print:(fun (s : Mm_workload.Gen.spec) ->
      Printf.sprintf "{segments=%d; banks=%d; ports=%d; configs=%d; seed=%d}"
        s.Mm_workload.Gen.segments s.Mm_workload.Gen.banks
        s.Mm_workload.Gen.ports s.Mm_workload.Gen.configs
        s.Mm_workload.Gen.seed)
    QCheck.Gen.(
      let* segments = int_range 3 8 in
      let* banks = int_range 4 8 in
      let* extra_ports = int_range 0 6 in
      let* configs = int_range 1 4 in
      let* seed = int_range 0 1_000_000 in
      return
        {
          Mm_workload.Gen.segments;
          banks;
          ports = banks + extra_ports;
          configs = configs * 5;
          seed;
        })

let prop_parallel_mapper_equivalent =
  qtest ~count:20 "mapper verdict and objective agree across parallelism 1/2/4"
    spec_gen (fun spec ->
      match Mm_workload.Gen.instance spec with
      | exception Invalid_argument _ -> QCheck.assume_fail ()
      | board, design ->
          let solve j =
            let solver_options =
              Mm_lp.Solver.options
                ~bb:(Mm_lp.Branch_bound.options ~parallelism:j ())
                ()
            in
            match
              Mapper.run ~options:(Mapper.options ~solver_options ()) board
                design
            with
            | Ok o ->
                `Mapped
                  ( o.Mapper.objective,
                    Validate.is_legal board design o.Mapper.mapping )
            | Error (Mapper.Unmappable _) -> `Unmappable
            | Error (Mapper.Retries_exhausted _) -> `Retries_exhausted
            | Error Mapper.Solver_limit -> `Solver_limit
          in
          let serial = solve 1 in
          let same = function
            | `Mapped (o, legal), `Mapped (o', legal') ->
                Float.abs (o -. o') <= 1e-6 *. Float.max 1.0 (Float.abs o)
                && legal = legal'
            | a, b -> a = b
          in
          List.for_all (fun j -> same (serial, solve j)) [ 2; 4 ])

(* --- tracing through the mapper ------------------------------------------- *)

let traced_mapper_run ?(time_limit = 30.0) board design =
  let tr = Mm_obs.Trace.create () in
  let options =
    Mapper.options
      ~solver_options:
        (Mm_lp.Solver.options
           ~bb:(Mm_lp.Branch_bound.options ~time_limit ())
           ())
      ~trace:tr ()
  in
  (match Mapper.run ~options board design with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Mapper.error_to_string e));
  match Mm_obs.Summary.of_lines (Mm_obs.Trace.dump_lines tr) with
  | Ok evs -> evs
  | Error e -> Alcotest.fail e

let test_trace_summary_all_table3_points () =
  (* every Table-3 design point must produce a trace the summary can
     parse and render *)
  List.iter
    (fun (point : Mm_workload.Table3.point) ->
      let board, design =
        Mm_workload.Gen.instance point.Mm_workload.Table3.spec
      in
      let evs = traced_mapper_run board design in
      Alcotest.(check bool) "has events" true (evs <> []);
      Alcotest.(check bool) "summary renders" true
        (String.length (Mm_obs.Summary.render evs) > 0);
      (* every traced pipeline records the facade and mapper spans *)
      let totals = Mm_obs.Summary.phase_totals evs in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " span present") true
            (List.mem_assoc name totals))
        [ "presolve"; "bb"; "solve"; "ilp"; "detailed" ])
    Mm_workload.Table3.points

let test_trace_phase_sums () =
  (* point 9, the paper's largest: the per-phase span totals must
     account for the enclosing solve span to within 5% *)
  let point = List.nth Mm_workload.Table3.points 8 in
  let board, design = Mm_workload.Gen.instance point.Mm_workload.Table3.spec in
  let evs = traced_mapper_run board design in
  let totals = Mm_obs.Summary.phase_totals evs in
  let total name = Option.value (List.assoc_opt name totals) ~default:0.0 in
  let parts =
    total "presolve" +. total "cuts" +. total "heuristic" +. total "bb"
  in
  let solve = total "solve" in
  Alcotest.(check bool) "solve span recorded" true (solve > 0.0);
  Alcotest.(check bool) "phases sum to the solve span within 5%" true
    (Float.abs (parts -. solve) <= 0.05 *. solve)

(* The LU density histograms record each solve result's true nonzero
   share in permille. On point 1, the smallest Table-3 point, most
   solve results are mostly zero, so a median at the full-density bucket
   means the count went back to the vector length. *)
let test_trace_density_median () =
  let point = List.hd Mm_workload.Table3.points in
  let board, design = Mm_workload.Gen.instance point.Mm_workload.Table3.spec in
  let evs = traced_mapper_run board design in
  List.iter
    (fun name ->
      (* log2 buckets by upper bound, in permille (the wire scales
         every histogram to seconds) *)
      let buckets =
        List.concat_map
          (fun (e : Mm_obs.Summary.event) ->
            if e.Mm_obs.Summary.kind = "hist" && e.Mm_obs.Summary.name = name
            then
              List.map
                (fun (ub, c) -> (Float.round (ub *. 1e9), c))
                e.Mm_obs.Summary.buckets
            else [])
          evs
        |> List.sort compare
      in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
      Alcotest.(check bool) (name ^ " recorded") true (total > 0);
      let rec median acc = function
        | [] -> infinity
        | (ub, c) :: rest ->
            if 2 * (acc + c) >= total then ub else median (acc + c) rest
      in
      Alcotest.(check bool)
        (name ^ " median below 1000 permille")
        true
        (median 0 buckets < 1000.0))
    [ "ftran_density_permille"; "btran_density_permille" ]

(* [trace-summary] splits histograms by name: durations go to the
   latency table, [*_size] and [*_permille] magnitudes to their own
   unitless table. A density read as microseconds is meaningless. *)
let test_trace_density_renders_as_magnitude () =
  let tr = Mm_obs.Trace.create () in
  let snk = Mm_obs.Trace.root tr in
  let emit name v =
    let h = Mm_obs.Trace.hist_create () in
    Mm_obs.Trace.hist_add h v;
    Mm_obs.Trace.emit_hist snk name h
  in
  emit "pivot" 1500L;
  emit "ftran_density_permille" 300L;
  let evs =
    match Mm_obs.Summary.of_lines (Mm_obs.Trace.dump_lines tr) with
    | Ok evs -> evs
    | Error e -> Alcotest.fail e
  in
  let lines = String.split_on_char '\n' (Mm_obs.Summary.render evs) in
  let index pred =
    let rec go i = function
      | [] -> Alcotest.fail "line not rendered"
      | l :: rest -> if pred l then (i, l) else go (i + 1) rest
    in
    go 0 lines
  in
  let has sub l =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
    in
    go 0
  in
  let latency, _ = index (has "Latency histograms") in
  let magnitude, _ = index (has "Magnitude histograms") in
  let pivot, _ = index (has "pivot") in
  let density, row = index (has "ftran_density_permille") in
  Alcotest.(check bool) "pivot in the latency table" true
    (latency < pivot && pivot < magnitude);
  Alcotest.(check bool) "density in the magnitude table" true
    (magnitude < density);
  Alcotest.(check bool) "density not in microseconds" false (has "us" row)

let () =
  Alcotest.run "mm_mapping"
    [
      ( "fig3",
        [
          Alcotest.test_case "table2 bank" `Quick test_consumed_ports_fig3;
          Alcotest.test_case "two ports exact" `Quick test_consumed_ports_two_port_exact;
          prop_consumed_ports_monotone;
          prop_consumed_ports_bounds;
          prop_consumed_ports_never_underestimates;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "paper example" `Quick test_fig2_coefficients;
          Alcotest.test_case "exact fit" `Quick test_exact_fit_no_beta;
          Alcotest.test_case "narrow segment" `Quick test_narrow_segment;
          Alcotest.test_case "single config" `Quick test_single_config_bank;
          Alcotest.test_case "fits" `Quick test_fits;
        ] );
      ( "table2",
        [
          Alcotest.test_case "options" `Quick test_table2_options;
          Alcotest.test_case "two-port exactness" `Quick
            test_table2_two_ports_no_overestimate;
        ] );
      ( "cost",
        [
          Alcotest.test_case "components" `Quick test_cost_components;
          Alcotest.test_case "on-chip free pins" `Quick test_cost_onchip_free_pins;
        ] );
      ( "fragments",
        [
          prop_fragments_match_coefficients;
          prop_fragments_on_virtex;
          prop_fragment_count_matches_rectangle;
        ] );
      ( "detailed",
        [
          Alcotest.test_case "greedy legal" `Quick test_detailed_greedy_legal;
          Alcotest.test_case "overlap shares storage" `Quick
            test_detailed_overlap_shares_storage;
          Alcotest.test_case "conflicts cannot share" `Quick
            test_detailed_conflicting_cannot_share;
          Alcotest.test_case "validator catches corruption" `Quick
            test_validate_catches_corruption;
          Alcotest.test_case "detailed ILP direct" `Quick test_detailed_ilp_direct;
          Alcotest.test_case "fragment parts" `Quick test_instances_used_and_parts;
        ] );
      ( "global",
        [
          Alcotest.test_case "prefers on-chip" `Quick test_global_prefers_onchip;
          Alcotest.test_case "respects capacity" `Quick test_global_respects_capacity;
          Alcotest.test_case "unmappable" `Quick test_global_unmappable;
          Alcotest.test_case "no-good cut" `Quick test_global_forbidden_assignment;
          Alcotest.test_case "lifetime capacity cliques" `Quick
            test_global_lifetime_capacity_cliques;
          Alcotest.test_case "ports dominate capacity" `Quick
            test_port_constraint_dominates_capacity;
          prop_global_assignment_feasible;
        ] );
      ( "equivalence",
        [ prop_global_equals_complete; prop_global_optimal_vs_enumeration ] );
      ( "extensions",
        [
          Alcotest.test_case "multi-PU cost" `Quick test_multi_pu_cost;
          Alcotest.test_case "multi-PU assignment" `Quick test_multi_pu_assignment;
          Alcotest.test_case "multi-PU rejects" `Quick test_multi_pu_rejects;
          Alcotest.test_case "improved port values" `Quick
            test_improved_port_model_values;
          Alcotest.test_case "improved accepts table2" `Quick
            test_improved_accepts_all_table2_options;
          prop_improved_never_exceeds_fig3;
          Alcotest.test_case "improved enables mapping" `Quick
            test_improved_model_enables_mapping;
          Alcotest.test_case "arbitration port sharing" `Quick
            test_arbitration_enables_port_sharing;
          Alcotest.test_case "arbitration blocks conflicts" `Quick
            test_arbitration_still_blocks_conflicting;
          Alcotest.test_case "arbitration pipeline" `Quick
            test_mapper_arbitration_pipeline;
          prop_improved_pipeline_legal;
        ] );
      ( "parallel", [ prop_parallel_mapper_equivalent ] );
      ( "lp_kernels",
        [
          Alcotest.test_case "table3 complete counts pinned" `Quick
            test_table3_complete_counts_pinned;
          Alcotest.test_case "table3 formulations pinned" `Quick
            test_table3_formulations_pinned;
          Alcotest.test_case "table3 hot solves carry the root" `Quick
            test_table3_hot_solves_carry_the_root;
          Alcotest.test_case "table3 models round trip" `Quick
            test_table3_models_round_trip;
          Alcotest.test_case "warm re-solve allocation" `Quick
            test_warm_resolve_allocation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "summary parses all table3 points" `Quick
            test_trace_summary_all_table3_points;
          Alcotest.test_case "phase sums on point 9" `Quick
            test_trace_phase_sums;
          Alcotest.test_case "density median on point 1" `Quick
            test_trace_density_median;
          Alcotest.test_case "density histograms render as magnitudes" `Quick
            test_trace_density_renders_as_magnitude;
        ] );
      ( "mapper",
        [
          prop_pipeline_produces_legal_mappings;
          Alcotest.test_case "complete path" `Quick test_mapper_complete_path;
          Alcotest.test_case "ilp detailed engine" `Quick test_mapper_ilp_detailed_engine;
          Alcotest.test_case "report renders" `Quick test_report_renders;
          Alcotest.test_case "report contents" `Quick test_report_contents;
          Alcotest.test_case "lifetime chart" `Quick test_lifetime_chart;
          Alcotest.test_case "retry budget" `Quick test_mapper_retry_budget;
          Alcotest.test_case "fragmentation metric" `Quick test_fragmentation_metric;
          Alcotest.test_case "global through MPS" `Quick test_global_ilp_through_mps;
          Alcotest.test_case "global through LP format" `Quick
            test_global_ilp_through_lp_format;
        ] );
    ]
