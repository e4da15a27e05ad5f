(* Entry point: one workload per invocation, its result record and
   metrics on stdout, the result object as the last line. Exits 1 when
   any operation failed its check. *)

let usage =
  "perfbench (table3-complete|s3-tree|serve-open) --seed N --seconds S \
   --trace 0|1 --mmap PATH --workdir DIR [--rev REV]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and mmap = ref "" and workdir = ref "." and rev = ref "unknown" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1 for the traced per-layer run");
      ("--mmap", Arg.Set_string mmap, "mmap executable (serve-open)");
      ("--workdir", Arg.Set_string workdir, "scratch directory");
      ("--rev", Arg.Set_string rev, "source revision for the record");
    ]
    (fun w -> workload := w)
    usage;
  let run =
    {
      Common.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      mmap = !mmap;
      workdir = !workdir;
      rev = !rev;
    }
  in
  let tally, metrics =
    match !workload with
    | "table3-complete" -> Solve_bench.table3 run
    | "s3-tree" -> Solve_bench.s3_tree run
    | "serve-open" -> Serve_bench.serve_open run
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  Printf.printf "metric %-34s %14.6f ratio\n" "fail_frac"
    (Common.ratio (float_of_int tally.Common.failed)
       (float_of_int tally.Common.attempted));
  print_endline (Common.result_line tally metrics);
  exit (if tally.Common.failed = 0 then 0 else 1)
