(* Tests of the differential fuzzing harness itself: case codec and
   shrinking, the brute-force oracle against hand-checkable problems, a
   mini campaign (the full fixed-seed campaign is CI's fuzz-smoke job),
   replay round-trips and the corpus manifest. *)

open Mm_fuzz
module Prng = Mm_util.Prng
module Model = Mm_lp.Model
module Expr = Mm_lp.Expr
module Problem = Mm_lp.Problem

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; 2026 |])
    (QCheck.Test.make ~count ~name gen prop)

(* --- Case ---------------------------------------------------------------- *)

let case_gen =
  QCheck.make
    ~print:(fun c -> Case.describe c)
    (QCheck.Gen.map
       (fun seed -> Case.generate (Prng.create seed))
       (QCheck.Gen.int_bound 1_000_000))

let prop_case_json_roundtrip =
  qtest "case json roundtrip" case_gen (fun c ->
      match Case.of_json (Case.to_json c) with
      | Ok c' -> c = c'
      | Error _ -> false)

let prop_case_materializes =
  qtest ~count:100 "generated cases materialize" case_gen (fun c ->
      match Case.problem c with
      | None -> QCheck.assume_fail ()
      | Some p -> Problem.validate p = Ok ())

let prop_shrink_stays_valid =
  qtest ~count:100 "shrink candidates materialize" case_gen (fun c ->
      List.for_all
        (fun c' ->
          match Case.problem c' with
          | None -> false
          | Some p -> Problem.validate p = Ok ())
        (Case.shrink c))

let prop_case_deterministic =
  qtest ~count:50 "same descriptor, same problem" case_gen (fun c ->
      match (Case.problem c, Case.problem c) with
      | Some a, Some b ->
          a.Problem.ncols = b.Problem.ncols
          && a.Problem.nrows = b.Problem.nrows
          && a.Problem.obj = b.Problem.obj
          && a.Problem.row_ub = b.Problem.row_ub
      | None, None -> true
      | _ -> false)

(* --- Oracle -------------------------------------------------------------- *)

(* min -3x - 2y st x + y <= 1 over binaries: optimum -3 at (1,0) *)
let test_oracle_small_max () =
  let m = Model.create () in
  let x = Model.binary m ~obj:(-3.0) () in
  let y = Model.binary m ~obj:(-2.0) () in
  Model.add_le m Expr.(sum [ var x; var y ]) 1.0;
  let p = Model.to_problem m in
  match Oracle.check p with
  | `Optimal v -> Alcotest.(check (float 1e-9)) "optimum" (-3.0) v
  | `Infeasible -> Alcotest.fail "oracle says infeasible"
  | `Too_big -> Alcotest.fail "oracle says too big"

let test_oracle_infeasible () =
  let m = Model.create () in
  let x = Model.binary m () in
  let y = Model.binary m () in
  Model.add_ge m Expr.(sum [ var x; var y ]) 3.0;
  let p = Model.to_problem m in
  match Oracle.check p with
  | `Infeasible -> ()
  | `Optimal _ -> Alcotest.fail "oracle found a feasible point"
  | `Too_big -> Alcotest.fail "oracle says too big"

let test_oracle_too_big () =
  let m = Model.create () in
  for _ = 1 to Oracle.max_vars + 1 do
    ignore (Model.binary m ())
  done;
  (match Oracle.check (Model.to_problem m) with
  | `Too_big -> ()
  | _ -> Alcotest.fail "oracle should refuse > max_vars");
  let m = Model.create () in
  ignore (Model.add_var m ~ub:1.0 Problem.Continuous);
  match Oracle.check (Model.to_problem m) with
  | `Too_big -> ()
  | _ -> Alcotest.fail "oracle should refuse non-binary columns"

(* agreement on every small pure-binary case is the harness's own
   differential check in miniature *)
let prop_oracle_agrees_with_solver =
  qtest ~count:60 "oracle agrees with the solver"
    (QCheck.make
       ~print:(fun c -> Case.describe c)
       (QCheck.Gen.map
          (fun seed ->
            Case.Mip
              {
                vars = 2 + (seed mod 9);
                rows = 1 + (seed mod 5);
                seed;
                pure_binary = true;
              })
          (QCheck.Gen.int_bound 1_000_000)))
    (fun c ->
      match Differential.run_case ~time_limit:30.0 ~arms:[] c with
      | Ok r -> r.Differential.oracle_checked
      | Error f -> QCheck.Test.fail_report (Differential.failure_to_string f))

(* --- Shrink -------------------------------------------------------------- *)

let test_shrink_minimizes () =
  (* pretend every case with vars >= 3 fails: the minimizer must walk
     down to the smallest failing descriptor without leaving the
     predicate *)
  let still_fails = function
    | Case.Mip { vars; _ } -> vars >= 3
    | Case.Workload _ -> false
  in
  let start = Case.Mip { vars = 14; rows = 8; seed = 7; pure_binary = false } in
  match Shrink.minimize ~still_fails start with
  | Case.Mip { vars; rows; _ } ->
      Alcotest.(check int) "vars minimized" 3 vars;
      Alcotest.(check int) "rows minimized" 1 rows
  | Case.Workload _ -> Alcotest.fail "family changed under shrinking"

(* --- Campaign ------------------------------------------------------------ *)

let test_mini_campaign_clean () =
  let config =
    {
      Campaign.default_config with
      Campaign.cases = 30;
      seed = 424242;
      time_limit = 30.0;
    }
  in
  let o = Campaign.run config in
  Alcotest.(check int) "all generated" 30 o.Campaign.generated;
  Alcotest.(check (list string)) "no failures" []
    (List.map Differential.failure_to_string o.Campaign.failures);
  Alcotest.(check bool) "solves counted" true (o.Campaign.solves >= 30)

let test_matrix_shape () =
  (* every axis the differential check relies on must stay covered:
     the tree's domain counts, each cut configuration, and warm starts
     both serial and parallel *)
  let arms = Arm.reference :: Arm.matrix in
  let has f = List.exists f arms in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "an arm at parallelism %d" j)
        true
        (has (fun (a : Arm.t) -> a.Arm.parallelism = j)))
    [ 1; 2; 4 ];
  List.iter
    (fun (mode, what) ->
      Alcotest.(check bool) ("an arm with " ^ what) true
        (has (fun (a : Arm.t) -> a.Arm.cuts = mode)))
    [
      (Arm.Full, "the full cut pool");
      (Off, "cuts off");
      (Baseline, "cover-only cuts");
    ];
  Alcotest.(check bool) "a serial warm arm" true
    (has (fun (a : Arm.t) -> a.Arm.warm && a.Arm.parallelism = 1));
  Alcotest.(check bool) "a parallel warm arm" true
    (has (fun (a : Arm.t) -> a.Arm.warm && a.Arm.parallelism > 1));
  Alcotest.(check bool) "reference is the serial cold full-pool default" true
    (Arm.reference.Arm.parallelism = 1
    && Arm.reference.Arm.cuts = Full
    && not Arm.reference.Arm.warm);
  Alcotest.(check bool) "arm names are unique" true
    (let names = List.map (fun (a : Arm.t) -> a.Arm.name) arms in
     List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun (a : Arm.t) ->
      let o = Arm.solver_options a in
      Alcotest.(check int)
        (Printf.sprintf "%s options carry its parallelism" a.Arm.name)
        a.Arm.parallelism
        o.Mm_lp.Solver.bb.Mm_lp.Branch_bound.parallelism)
    arms

(* reference vs the serial arms (cover-only, cuts off, warm) on random
   small MIPs: they must agree with the reference case for case, not
   just on the committed corpus *)
let prop_serial_arms_agree =
  qtest ~count:40 "serial arms agree with reference"
    (QCheck.make
       ~print:(fun c -> Case.describe c)
       (QCheck.Gen.map
          (fun seed ->
            Case.Mip
              {
                vars = 3 + (seed mod 12);
                rows = 2 + (seed mod 7);
                seed;
                pure_binary = seed mod 2 = 0;
              })
          (QCheck.Gen.int_bound 1_000_000)))
    (fun c ->
      let serial_arms =
        List.filter (fun (a : Arm.t) -> a.Arm.parallelism = 1) Arm.matrix
      in
      match Differential.run_case ~time_limit:30.0 ~arms:serial_arms c with
      | Ok _ -> true
      | Error f -> QCheck.Test.fail_report (Differential.failure_to_string f))

let test_arm_rotation_covers_matrix () =
  let covered =
    List.concat_map Campaign.arms_for (List.init 3 Fun.id)
    |> List.map (fun (a : Arm.t) -> a.Arm.name)
  in
  List.iter
    (fun (a : Arm.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s covered within 3 cases" a.Arm.name)
        true
        (List.mem a.Arm.name covered))
    Arm.matrix

(* --- Replay -------------------------------------------------------------- *)

let test_replay_roundtrip () =
  let dir = Filename.temp_file "mmfuzz" "" in
  Sys.remove dir;
  let case = Case.Mip { vars = 5; rows = 3; seed = 99; pure_binary = true } in
  let failure =
    { Differential.case; arm = "j2-devex-full"; reason = "objective drift" }
  in
  let path = Replay.save ~dir failure in
  (match Replay.load path with
  | Ok c -> Alcotest.(check bool) "case round-trips" true (c = case)
  | Error msg -> Alcotest.fail msg);
  (* same case re-saves to the same file: campaigns overwrite, not
     accumulate *)
  let path' = Replay.save ~dir failure in
  Alcotest.(check string) "deterministic path" path path';
  Sys.remove path;
  Unix.rmdir dir

let test_replay_load_errors () =
  (match Replay.load "/nonexistent/replay.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file must fail");
  let tmp = Filename.temp_file "mmfuzz" ".json" in
  let oc = open_out tmp in
  output_string oc "{\"arm\": \"x\"}";
  close_out oc;
  (match Replay.load tmp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay without a case field must fail");
  Sys.remove tmp

(* --- Corpus -------------------------------------------------------------- *)

let test_manifest_parser () =
  let text =
    "# comment\n\nknap.mps optimal -11\nempty.mps infeasible\nfree.mps \
     unbounded\n"
  in
  (match Corpus.parse_manifest text with
  | Error msg -> Alcotest.fail msg
  | Ok entries ->
      Alcotest.(check int) "3 entries" 3 (List.length entries);
      let k = List.hd entries in
      Alcotest.(check string) "file" "knap.mps" k.Corpus.file;
      Alcotest.(check (option (float 1e-9))) "objective" (Some (-11.0))
        k.Corpus.objective);
  match Corpus.parse_manifest "knap.mps sideways\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad status must be rejected"

let test_corpus_runs () =
  (* the committed corpus must stay green: it is CI's external leg *)
  let dir = "../../../corpus" in
  if Sys.file_exists dir then
    match Corpus.run ~time_limit:60.0 ~dir () with
    | Error msg -> Alcotest.fail msg
    | Ok s ->
        Alcotest.(check (list (pair string string))) "no errors" [] s.Corpus.errors;
        Alcotest.(check bool) "files checked" true (s.Corpus.checked >= 3);
        Alcotest.(check bool) "manifest used" true (s.Corpus.matched >= 3)

let () =
  Alcotest.run "fuzz"
    [
      ( "case",
        [
          prop_case_json_roundtrip;
          prop_case_materializes;
          prop_shrink_stays_valid;
          prop_case_deterministic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "small maximization" `Quick test_oracle_small_max;
          Alcotest.test_case "infeasible" `Quick test_oracle_infeasible;
          Alcotest.test_case "too big" `Quick test_oracle_too_big;
          prop_oracle_agrees_with_solver;
        ] );
      ("shrink", [ Alcotest.test_case "greedy descent" `Quick test_shrink_minimizes ]);
      ( "campaign",
        [
          Alcotest.test_case "mini campaign clean" `Slow test_mini_campaign_clean;
          Alcotest.test_case "arm rotation covers matrix" `Quick
            test_arm_rotation_covers_matrix;
          Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
          prop_serial_arms_agree;
        ] );
      ( "replay",
        [
          Alcotest.test_case "roundtrip" `Quick test_replay_roundtrip;
          Alcotest.test_case "load errors" `Quick test_replay_load_errors;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "manifest parser" `Quick test_manifest_parser;
          Alcotest.test_case "committed corpus green" `Slow test_corpus_runs;
        ] );
    ]
