open Mm_design

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 2026 |])
    (QCheck.Test.make ~count ~name gen prop)

(* --- Segment ----------------------------------------------------------------- *)

let test_segment () =
  let s = Segment.make ~name:"a" ~depth:55 ~width:17 () in
  Alcotest.(check int) "bits" 935 (Segment.bits s);
  Alcotest.(check int) "default reads" 55 s.Segment.reads;
  Alcotest.(check int) "default writes" 55 s.Segment.writes;
  Alcotest.(check int) "accesses" 110 (Segment.accesses s);
  let s2 = Segment.make ~reads:7 ~writes:3 ~name:"b" ~depth:4 ~width:4 () in
  Alcotest.(check int) "profiled accesses" 10 (Segment.accesses s2);
  Alcotest.check_raises "bad size"
    (Invalid_argument "Segment.make: non-positive size") (fun () ->
      ignore (Segment.make ~name:"x" ~depth:0 ~width:4 ()))

(* --- Conflict ----------------------------------------------------------------- *)

let test_conflict_basic () =
  let c = Conflict.of_pairs 4 [ (0, 1); (2, 1) ] in
  Alcotest.(check bool) "0-1" true (Conflict.conflicts c 0 1);
  Alcotest.(check bool) "1-0 symmetric" true (Conflict.conflicts c 1 0);
  Alcotest.(check bool) "1-2" true (Conflict.conflicts c 1 2);
  Alcotest.(check bool) "0-2" false (Conflict.conflicts c 0 2);
  Alcotest.(check bool) "self" false (Conflict.conflicts c 1 1);
  Alcotest.(check int) "pairs" 2 (Conflict.num_pairs c);
  Alcotest.(check (list int)) "neighbours of 1" [ 0; 2 ] (Conflict.neighbours c 1)

let test_conflict_complete () =
  let c = Conflict.all_conflicting 5 in
  Alcotest.(check bool) "complete" true (Conflict.is_complete c);
  Alcotest.(check int) "pairs" 10 (Conflict.num_pairs c);
  let cover = Conflict.clique_cover c in
  Alcotest.(check int) "one clique" 1 (List.length cover)

let test_conflict_rejects () =
  let c = Conflict.empty 3 in
  Alcotest.check_raises "self" (Invalid_argument "Conflict.add: self-conflict")
    (fun () -> ignore (Conflict.add c 1 1));
  Alcotest.check_raises "range" (Invalid_argument "Conflict.add: range")
    (fun () -> ignore (Conflict.add c 0 3))

let conflict_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 2 10 in
      let* seed = int_range 0 100000 in
      return (n, seed))

let random_conflict (n, seed) =
  let rng = Mm_util.Prng.create seed in
  let c = ref (Conflict.empty n) in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Mm_util.Prng.bool rng then c := Conflict.add !c a b
    done
  done;
  !c

let prop_clique_cover_partitions =
  qtest "clique cover partitions segments into mutually conflicting sets"
    conflict_gen (fun params ->
      let n, _ = params in
      let c = random_conflict params in
      let cover = Conflict.clique_cover c in
      let all = List.sort compare (List.concat cover) in
      all = Mm_util.Ints.range n
      && List.for_all
           (fun clique ->
             List.for_all
               (fun a ->
                 List.for_all (fun b -> a = b || Conflict.conflicts c a b) clique)
               clique)
           cover)

let prop_max_cliques_are_cliques =
  qtest "greedy maximal cliques are cliques covering every vertex" conflict_gen
    (fun params ->
      let n, _ = params in
      let c = random_conflict params in
      let cliques = Conflict.max_cliques_greedy c in
      List.for_all
        (fun clique ->
          List.for_all
            (fun a -> List.for_all (fun b -> a = b || Conflict.conflicts c a b) clique)
            clique)
        cliques
      && List.for_all (fun v -> List.exists (List.mem v) cliques) (Mm_util.Ints.range n))

(* --- Lifetime ------------------------------------------------------------------ *)

let iv b d = { Lifetime.birth = b; death = d }

let test_lifetime_overlap () =
  let lt = Lifetime.make [| iv 0 5; iv 3 8; iv 6 9; iv 20 30 |] in
  Alcotest.(check bool) "0-1 overlap" true (Lifetime.overlap lt 0 1);
  Alcotest.(check bool) "0-2 disjoint" false (Lifetime.overlap lt 0 2);
  Alcotest.(check bool) "1-2 overlap" true (Lifetime.overlap lt 1 2);
  Alcotest.(check bool) "0-3 disjoint" false (Lifetime.overlap lt 0 3);
  let c = Lifetime.conflicts lt in
  Alcotest.(check int) "pairs" 2 (Conflict.num_pairs c)

let test_lifetime_live_at () =
  let lt = Lifetime.make [| iv 0 5; iv 3 8; iv 6 9 |] in
  Alcotest.(check (list int)) "at 4" [ 0; 1 ] (Lifetime.live_at lt 4);
  Alcotest.(check (list int)) "at 7" [ 1; 2 ] (Lifetime.live_at lt 7);
  Alcotest.(check (list int)) "at 100" [] (Lifetime.live_at lt 100)

let test_lifetime_max_weight () =
  let lt = Lifetime.make [| iv 0 5; iv 3 8; iv 6 9 |] in
  let w = function 0 -> 10 | 1 -> 20 | 2 -> 5 | _ -> 0 in
  (* max simultaneous: {0,1} at step 3 = 30 *)
  Alcotest.(check int) "max live weight" 30 (Lifetime.max_live_weight lt ~weight:w)

let lifetime_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* seed = int_range 0 100000 in
      return (n, seed))

let random_lifetime (n, seed) =
  let rng = Mm_util.Prng.create (seed + 5) in
  Lifetime.make
    (Array.init n (fun _ ->
         let b = Mm_util.Prng.int_in rng 0 30 in
         iv b (b + Mm_util.Prng.int_in rng 0 20)))

let prop_max_weight_equals_sweep =
  qtest "max_live_weight equals brute-force time sweep" lifetime_gen
    (fun params ->
      let n, seed = params in
      let lt = random_lifetime params in
      let rng = Mm_util.Prng.create (seed + 99) in
      let weights = Array.init n (fun _ -> Mm_util.Prng.int_in rng 1 100) in
      let sweep = ref 0 in
      for step = 0 to 60 do
        sweep :=
          max !sweep
            (Mm_util.Ints.sum_by (fun i -> weights.(i)) (Lifetime.live_at lt step))
      done;
      Lifetime.max_live_weight lt ~weight:(fun i -> weights.(i)) = !sweep)

let prop_maximal_cliques_exact =
  qtest "interval maximal cliques are cliques and cover all overlaps"
    lifetime_gen (fun params ->
      let lt = random_lifetime params in
      let cliques = Lifetime.maximal_cliques lt in
      let n = Lifetime.num_segments lt in
      List.for_all
        (fun clique ->
          List.for_all
            (fun a -> List.for_all (fun b -> a = b || Lifetime.overlap lt a b) clique)
            clique)
        cliques
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 (not (a < b && Lifetime.overlap lt a b))
                 || List.exists (fun c -> List.mem a c && List.mem b c) cliques)
               (Mm_util.Ints.range n))
           (Mm_util.Ints.range n))

(* The clique list, order included, as the quadratic definition gives
   it: the live set at every start, deduplicated, minus the live sets
   contained in another. The global ILP's capacity rows follow this
   order. *)
let prop_maximal_cliques_as_defined =
  qtest "interval maximal cliques match the live-set definition"
    lifetime_gen (fun params ->
      let lt = random_lifetime params in
      let n = Lifetime.num_segments lt in
      let starts =
        List.sort_uniq compare
          (List.map (fun i -> (Lifetime.interval lt i).Lifetime.birth)
             (Mm_util.Ints.range n))
      in
      let sets =
        List.sort_uniq compare
          (List.map (fun s -> List.sort compare (Lifetime.live_at lt s)) starts)
      in
      let subset a b = List.for_all (fun x -> List.mem x b) a in
      let want =
        List.filter
          (fun s ->
            s <> [] && not (List.exists (fun o -> o <> s && subset s o) sets))
          sets
      in
      Lifetime.maximal_cliques lt = want)

(* --- Dfg / Schedule --------------------------------------------------------------- *)

let diamond () =
  let g = Dfg.create () in
  let a = Dfg.add_op g ~name:"load" (Dfg.Write 0) in
  let b = Dfg.add_op g ~name:"left" (Dfg.Read 0) in
  let c = Dfg.add_op g ~name:"right" (Dfg.Read 0) in
  let d = Dfg.add_op g ~name:"join" (Dfg.Write 3) ~delay:2 in
  Dfg.add_dep g a b;
  Dfg.add_dep g a c;
  Dfg.add_dep g b d;
  Dfg.add_dep g c d;
  (g, a, b, c, d)

let test_dfg_topo () =
  let g, a, _, _, d = diamond () in
  let order = Dfg.topological_order g in
  Alcotest.(check int) "four ops" 4 (List.length order);
  Alcotest.(check bool) "a first" true (List.hd order = a);
  Alcotest.(check bool) "d last" true (List.nth order 3 = d);
  Alcotest.(check bool) "acyclic" true (Dfg.is_acyclic g)

let test_dfg_cycle () =
  let g = Dfg.create () in
  let a = Dfg.add_op g ~name:"a" Dfg.Compute in
  let b = Dfg.add_op g ~name:"b" Dfg.Compute in
  Dfg.add_dep g a b;
  Dfg.add_dep g b a;
  Alcotest.(check bool) "cycle detected" false (Dfg.is_acyclic g)

let test_dfg_critical_path () =
  let g, _, _, _, _ = diamond () in
  (* 1 + 1 + 2 *)
  Alcotest.(check int) "critical path" 4 (Dfg.critical_path g)

let test_dfg_segments_touched () =
  let g, _, _, _, _ = diamond () in
  Alcotest.(check (list int)) "segments" [ 0; 3 ] (Dfg.segments_touched g)

let test_asap () =
  let g, a, b, c, d = diamond () in
  let s = Schedule.asap g in
  Alcotest.(check int) "a at 0" 0 s.Schedule.start.(a);
  Alcotest.(check int) "b at 1" 1 s.Schedule.start.(b);
  Alcotest.(check int) "c at 1" 1 s.Schedule.start.(c);
  Alcotest.(check int) "d at 2" 2 s.Schedule.start.(d);
  Alcotest.(check int) "makespan" 4 s.Schedule.makespan;
  (match Schedule.verify g s with Ok () -> () | Error e -> Alcotest.fail e)

let test_alap () =
  let g, a, _, _, d = diamond () in
  let s = Schedule.alap g ~deadline:10 in
  Alcotest.(check int) "d ends at deadline" 8 s.Schedule.start.(d);
  Alcotest.(check bool) "a no later than 7" true (s.Schedule.start.(a) <= 7);
  (match Schedule.verify g s with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.check_raises "too tight"
    (Invalid_argument "Schedule.alap: deadline below critical path") (fun () ->
      ignore (Schedule.alap g ~deadline:2))

let test_list_schedule_resources () =
  let g, _, b, c, _ = diamond () in
  let res = { Schedule.memory_ports = 1; alus = 1 } in
  let s = Schedule.list_schedule g res in
  (match Schedule.verify g ~resources:res s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* b and c are both memory reads; with one port they must serialize *)
  Alcotest.(check bool) "reads serialized" true
    (s.Schedule.start.(b) <> s.Schedule.start.(c))

let test_lifetimes_from_schedule () =
  let g, _, _, _, _ = diamond () in
  let s = Schedule.asap g in
  let lt = Schedule.lifetimes g s ~num_segments:4 in
  (* segment 0: written at 0, read at 1 -> [0, 1] *)
  Alcotest.(check int) "seg0 birth" 0 (Lifetime.interval lt 0).Lifetime.birth;
  Alcotest.(check int) "seg0 death" 1 (Lifetime.interval lt 0).Lifetime.death;
  (* segment 3: written at 2 (delay 2), never read -> persists to makespan *)
  Alcotest.(check int) "seg3 birth" 2 (Lifetime.interval lt 3).Lifetime.birth;
  Alcotest.(check int) "seg3 death" 4 (Lifetime.interval lt 3).Lifetime.death;
  (* segments 1, 2 are never accessed: inputs live from 0 *)
  Alcotest.(check int) "seg1 birth" 0 (Lifetime.interval lt 1).Lifetime.birth

let test_input_segment_lifetime () =
  (* a segment read before being written holds input data: born at 0 *)
  let g = Dfg.create () in
  let r = Dfg.add_op g ~name:"read-early" (Dfg.Read 0) in
  let w = Dfg.add_op g ~name:"write-late" (Dfg.Write 0) in
  Dfg.add_dep g r w;
  let s = Schedule.asap g in
  let lt = Schedule.lifetimes g s ~num_segments:1 in
  Alcotest.(check int) "input birth" 0 (Lifetime.interval lt 0).Lifetime.birth

let dfg_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 20 in
      let* seed = int_range 0 100000 in
      return (n, seed))

let random_dfg (n, seed) =
  let rng = Mm_util.Prng.create (seed + 31) in
  let g = Dfg.create () in
  let ids =
    Array.init n (fun i ->
        let kind =
          match Mm_util.Prng.int rng 3 with
          | 0 -> Dfg.Compute
          | 1 -> Dfg.Read (Mm_util.Prng.int rng 5)
          | _ -> Dfg.Write (Mm_util.Prng.int rng 5)
        in
        Dfg.add_op g
          ~name:(Printf.sprintf "op%d" i)
          ~delay:(Mm_util.Prng.int_in rng 1 3)
          kind)
  in
  (* edges only forward: guarantees a DAG *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Mm_util.Prng.int rng 4 = 0 then Dfg.add_dep g ids.(i) ids.(j)
    done
  done;
  g

let prop_list_schedule_valid =
  qtest ~count:100 "list schedule respects precedence and resources" dfg_gen
    (fun params ->
      let g = random_dfg params in
      let res = { Schedule.memory_ports = 2; alus = 2 } in
      let s = Schedule.list_schedule g res in
      Schedule.verify g ~resources:res s = Ok ())

let prop_asap_no_earlier =
  qtest ~count:100 "no resource-constrained schedule beats ASAP starts" dfg_gen
    (fun params ->
      let g = random_dfg params in
      let asap = Schedule.asap g in
      let res = { Schedule.memory_ports = 2; alus = 2 } in
      let listed = Schedule.list_schedule g res in
      Array.for_all Fun.id
        (Array.mapi (fun i s -> s >= asap.Schedule.start.(i)) listed.Schedule.start))

(* --- Design ---------------------------------------------------------------------- *)

let test_design_defaults () =
  let segs =
    [
      Segment.make ~name:"a" ~depth:8 ~width:8 ();
      Segment.make ~name:"b" ~depth:8 ~width:8 ();
    ]
  in
  let d = Design.make ~name:"d" segs in
  Alcotest.(check bool) "conservative conflicts" true
    (Conflict.is_complete d.Design.conflicts);
  Alcotest.(check int) "total bits" 128 (Design.total_bits d);
  Alcotest.(check int) "max live = total without lifetimes" 128
    (Design.max_live_bits d)

let test_design_with_lifetimes () =
  let segs =
    [
      Segment.make ~name:"a" ~depth:8 ~width:8 ();
      Segment.make ~name:"b" ~depth:8 ~width:8 ();
    ]
  in
  let lt = Lifetime.make [| iv 0 2; iv 5 9 |] in
  let d = Design.make ~lifetimes:lt ~name:"d" segs in
  Alcotest.(check int) "no conflicts" 0 (Conflict.num_pairs d.Design.conflicts);
  Alcotest.(check int) "max live < total" 64 (Design.max_live_bits d)

let test_design_of_schedule () =
  let g, _, _, _, _ = diamond () in
  let s = Schedule.asap g in
  let segs =
    List.init 4 (fun i ->
        Segment.make ~name:(Printf.sprintf "s%d" i) ~depth:8 ~width:8 ())
  in
  let d = Design.of_schedule ~name:"sched" segs g s in
  Alcotest.(check bool) "has lifetimes" true (d.Design.lifetimes <> None)

let test_design_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Design.make: no segments")
    (fun () -> ignore (Design.make ~name:"d" []))

let () =
  Alcotest.run "mm_design"
    [
      ("segment", [ Alcotest.test_case "basic" `Quick test_segment ]);
      ( "conflict",
        [
          Alcotest.test_case "basic" `Quick test_conflict_basic;
          Alcotest.test_case "complete" `Quick test_conflict_complete;
          Alcotest.test_case "rejects" `Quick test_conflict_rejects;
          prop_clique_cover_partitions;
          prop_max_cliques_are_cliques;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "overlap" `Quick test_lifetime_overlap;
          Alcotest.test_case "live_at" `Quick test_lifetime_live_at;
          Alcotest.test_case "max weight" `Quick test_lifetime_max_weight;
          prop_max_weight_equals_sweep;
          prop_maximal_cliques_exact;
          prop_maximal_cliques_as_defined;
        ] );
      ( "dfg",
        [
          Alcotest.test_case "topo" `Quick test_dfg_topo;
          Alcotest.test_case "cycle" `Quick test_dfg_cycle;
          Alcotest.test_case "critical path" `Quick test_dfg_critical_path;
          Alcotest.test_case "segments touched" `Quick test_dfg_segments_touched;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "asap" `Quick test_asap;
          Alcotest.test_case "alap" `Quick test_alap;
          Alcotest.test_case "list resources" `Quick test_list_schedule_resources;
          Alcotest.test_case "lifetimes" `Quick test_lifetimes_from_schedule;
          Alcotest.test_case "input lifetime" `Quick test_input_segment_lifetime;
          prop_list_schedule_valid;
          prop_asap_no_earlier;
        ] );
      ( "design",
        [
          Alcotest.test_case "defaults" `Quick test_design_defaults;
          Alcotest.test_case "lifetimes" `Quick test_design_with_lifetimes;
          Alcotest.test_case "of_schedule" `Quick test_design_of_schedule;
          Alcotest.test_case "rejects" `Quick test_design_rejects;
        ] );
    ]
