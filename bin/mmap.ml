(* mmap: command-line front end for the FPGA memory mapper.

   Subcommands:
     solve     map a design file onto a board file and print the report
     serve     long-lived mapping daemon over a Unix socket
     request   client for a running serve daemon
     generate  emit a synthetic board + design pair (Table 3 style)
     devices   print the built-in device library (the paper's Table 1)
     example   write template board/design files to get started

   The solver knobs (-j, --cut-rounds, --max-cuts-per-round, --no-cuts,
   --no-heuristics, --time-limit) live in Solver_flags and
   are shared by solve, solve-mps and serve. *)

open Cmdliner

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logs_term =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let read_board path =
  match Mm_io.Board_file.of_file path with
  | Ok b -> b
  | Error e ->
      Printf.eprintf "error reading board %s: %s\n" path e;
      exit 1

let read_design path =
  match Mm_io.Design_file.of_file path with
  | Ok d -> d
  | Error e ->
      Printf.eprintf "error reading design %s: %s\n" path e;
      exit 1

(* ---- solve ---------------------------------------------------------- *)

let weights_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ a; b; c ] -> (
        match (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c) with
        | Some latency, Some pin_delay, Some pin_io ->
            Ok { Mm_mapping.Cost.latency; pin_delay; pin_io }
        | _ -> Error (`Msg "weights must be three floats: LAT,PIN_DELAY,PIN_IO"))
    | _ -> Error (`Msg "weights must be three floats: LAT,PIN_DELAY,PIN_IO")
  in
  let print fmt (w : Mm_mapping.Cost.weights) =
    Format.fprintf fmt "%g,%g,%g" w.Mm_mapping.Cost.latency
      w.Mm_mapping.Cost.pin_delay w.Mm_mapping.Cost.pin_io
  in
  Arg.conv (parse, print)

let solve_cmd =
  let board_arg =
    Arg.(required & opt (some file) None & info [ "board"; "b" ] ~docv:"FILE"
           ~doc:"Board description file.")
  in
  let design_arg =
    Arg.(required & opt (some file) None & info [ "design"; "d" ] ~docv:"FILE"
           ~doc:"Design description file.")
  in
  let method_arg =
    Arg.(value & opt (enum [ ("global", `Global); ("complete", `Complete) ]) `Global
         & info [ "method" ]
             ~doc:"$(b,global) for the paper's global/detailed pipeline, \
                   $(b,complete) for the flat baseline ILP.")
  in
  let weights_arg =
    Arg.(value & opt weights_conv Mm_mapping.Cost.default_weights
         & info [ "weights"; "w" ] ~docv:"L,PD,PIO"
             ~doc:"Objective weights: latency, pin delay, pin I/O.")
  in
  let profiled_arg =
    Arg.(value & flag & info [ "profiled" ]
           ~doc:"Use profiled access counts instead of the paper's \
                 reads = writes = depth assumption.")
  in
  let detailed_arg =
    Arg.(value & opt (enum [ ("greedy", Mm_mapping.Mapper.Greedy); ("ilp", Mm_mapping.Mapper.Ilp) ])
           Mm_mapping.Mapper.Greedy
         & info [ "detailed" ] ~doc:"Detailed-mapping engine.")
  in
  let lp_out_arg =
    Arg.(value & opt (some string) None & info [ "lp-out" ] ~docv:"FILE"
           ~doc:"Also dump the global ILP in CPLEX LP format.")
  in
  let mps_out_arg =
    Arg.(value & opt (some string) None & info [ "mps-out" ] ~docv:"FILE"
           ~doc:"Also dump the global ILP in MPS format.")
  in
  let placements_arg =
    Arg.(value & flag & info [ "placements" ]
           ~doc:"Print the instance-by-instance placement table.")
  in
  let arbitration_arg =
    Arg.(value & flag & info [ "arbitration" ]
           ~doc:"Allow lifetime-disjoint segments to share ports (the                  paper's Section 6 extension).")
  in
  let port_model_arg =
    Arg.(value
         & opt (enum [ ("fig3", Mm_mapping.Preprocess.Fig3);
                       ("improved", Mm_mapping.Preprocess.Improved) ])
             Mm_mapping.Preprocess.Fig3
         & info [ "port-model" ]
             ~doc:"Consumed-port estimate: $(b,fig3) (the paper) or                    $(b,improved) (Section 6 refinement for >2-port banks).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the machine-readable report (the same JSON object \
                 every $(b,mmap serve) response carries) instead of the \
                 text tables.")
  in
  let run () board design method_ weights profiled detailed knobs lp_out
      mps_out placements arbitration port_model json trace_out =
    let board = read_board board and design = read_design design in
    let trace =
      match trace_out with
      | None -> Mm_obs.Trace.disabled
      | Some _ -> Mm_obs.Trace.create ()
    in
    let write_trace () =
      match trace_out with
      | None -> ()
      | Some path ->
          Mm_obs.Trace.write_jsonl trace path;
          Printf.printf "wrote trace %s\n" path
    in
    let options =
      Mm_mapping.Mapper.options ~weights
        ~access_model:
          (if profiled then Mm_mapping.Cost.Profiled else Mm_mapping.Cost.Uniform)
        ~detailed ~arbitration ~port_model ~trace
        ~solver_options:(Mm_service.Knobs.to_solver_options knobs)
        ()
    in
    let dump out writer =
      match out with
      | None -> ()
      | Some path -> (
          match
            Mm_mapping.Global_ilp.build ~weights
              ~access_model:options.Mm_mapping.Mapper.access_model board design
          with
          | Ok b ->
              writer b.Mm_mapping.Global_ilp.problem path;
              Printf.printf "wrote %s\n" path
          | Error e -> Printf.eprintf "cannot build ILP: %s\n" e)
    in
    dump lp_out Mm_lp.Lp_format.write;
    dump mps_out Mm_lp.Mps.write;
    let method_ =
      match method_ with
      | `Global -> Mm_mapping.Mapper.Global_detailed
      | `Complete -> Mm_mapping.Mapper.Complete_flat
    in
    match Mm_mapping.Mapper.run ~method_ ~options board design with
    | Error e ->
        write_trace ();
        Printf.eprintf "%s\n" (Mm_mapping.Mapper.error_to_string e);
        (* distinct exit codes so scripts can tell "no mapping exists"
           from "the solver ran out of budget" *)
        exit
          (match e with
          | Mm_mapping.Mapper.Unmappable _ -> 2
          | Mm_mapping.Mapper.Retries_exhausted _ -> 3
          | Mm_mapping.Mapper.Solver_limit -> 4)
    | Ok o ->
        write_trace ();
        if json then
          print_endline
            (Mm_obs.Json.to_string
               (Mm_mapping.Report.to_json
                  (Mm_mapping.Report.of_outcome board design o)))
        else begin
        print_endline
          (Mm_mapping.Report.solver_config
             options.Mm_mapping.Mapper.solver_options);
        if placements then print_string (Mm_mapping.Report.outcome board design o)
        else begin
          Printf.printf
            "objective %.1f | ILP %.3fs | detailed %.3fs | retries %d\n"
            o.Mm_mapping.Mapper.objective o.Mm_mapping.Mapper.ilp_seconds
            o.Mm_mapping.Mapper.detailed_seconds o.Mm_mapping.Mapper.retries;
          print_string
            (Mm_mapping.Report.assignment_summary board design
               o.Mm_mapping.Mapper.assignment);
          print_string
            (Mm_mapping.Report.cost_breakdown ~weights
               ~access_model:options.Mm_mapping.Mapper.access_model board design
               o.Mm_mapping.Mapper.assignment);
          print_endline
            (Mm_mapping.Report.lp_core_summary o.Mm_mapping.Mapper.ilp_result)
        end
        end;
        let violations =
          Mm_mapping.Validate.check ~port_model ~arbitration board design
            o.Mm_mapping.Mapper.mapping
        in
        if violations <> [] then begin
          Printf.eprintf "INTERNAL: %d validation violations\n"
            (List.length violations);
          exit 5
        end
  in
  Cmd.v (Cmd.info "solve" ~doc:"Map a design onto a board.")
    Term.(
      const run $ logs_term $ board_arg $ design_arg $ method_arg $ weights_arg
      $ profiled_arg $ detailed_arg $ Solver_flags.term $ lp_out_arg
      $ mps_out_arg $ placements_arg $ arbitration_arg $ port_model_arg
      $ json_arg $ Solver_flags.trace_arg)

(* ---- generate ------------------------------------------------------- *)

let generate_cmd =
  let segments_arg =
    Arg.(value & opt int 22 & info [ "segments" ] ~docv:"N" ~doc:"Data segments.")
  in
  let banks_arg =
    Arg.(value & opt int 13 & info [ "banks" ] ~docv:"N" ~doc:"Total banks.")
  in
  let ports_arg =
    Arg.(value & opt int 25 & info [ "ports" ] ~docv:"N" ~doc:"Total ports.")
  in
  let configs_arg =
    Arg.(value & opt int 50 & info [ "configs" ] ~docv:"N"
           ~doc:"Total configuration settings over multi-config ports.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let out_board_arg =
    Arg.(value & opt string "board.mm" & info [ "out-board" ] ~docv:"FILE"
           ~doc:"Output board file.")
  in
  let out_design_arg =
    Arg.(value & opt string "design.mm" & info [ "out-design" ] ~docv:"FILE"
           ~doc:"Output design file.")
  in
  let run () segments banks ports configs seed out_board out_design =
    let spec = { Mm_workload.Gen.segments; banks; ports; configs; seed } in
    match Mm_workload.Gen.instance spec with
    | board, design ->
        Mm_io.Board_file.to_file board out_board;
        Mm_io.Design_file.to_file design out_design;
        Printf.printf "wrote %s (%d banks, %d ports, %d configs) and %s (%d segments)\n"
          out_board
          (Mm_arch.Board.total_banks board)
          (Mm_arch.Board.total_ports board)
          (Mm_arch.Board.total_configs board)
          out_design
          (Mm_design.Design.num_segments design)
    | exception Invalid_argument m ->
        Printf.eprintf "cannot generate: %s\n" m;
        exit 1
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a synthetic board/design pair with exact Table 3 \
             complexity parameters.")
    Term.(
      const run $ logs_term $ segments_arg $ banks_arg $ ports_arg $ configs_arg
      $ seed_arg $ out_board_arg $ out_design_arg)

(* ---- devices --------------------------------------------------------- *)

let devices_cmd =
  let run () =
    let t =
      Mm_util.Table.create
        [
          ("Device", Mm_util.Table.Left);
          ("RAM", Mm_util.Table.Left);
          ("Banks", Mm_util.Table.Center);
          ("Bits", Mm_util.Table.Right);
          ("Configurations", Mm_util.Table.Left);
        ]
    in
    List.iter
      (fun (e : Mm_arch.Devices.device_entry) ->
        Mm_util.Table.add_row t
          [
            e.Mm_arch.Devices.family;
            e.Mm_arch.Devices.ram_name;
            Printf.sprintf "%d-%d" e.Mm_arch.Devices.banks_min
              e.Mm_arch.Devices.banks_max;
            string_of_int e.Mm_arch.Devices.size_bits;
            String.concat " "
              (List.map Mm_arch.Config.to_string e.Mm_arch.Devices.config_list);
          ])
      Mm_arch.Devices.table1;
    Mm_util.Table.print t
  in
  Cmd.v (Cmd.info "devices" ~doc:"Print the built-in device library (Table 1).")
    Term.(const run $ logs_term)

(* ---- example --------------------------------------------------------- *)

let example_cmd =
  let run () =
    Mm_io.Board_file.to_file (Mm_arch.Devices.virtex_board ()) "board.mm";
    let design =
      Mm_design.Design.make ~name:"example"
        [
          Mm_design.Segment.make ~name:"coeffs" ~depth:128 ~width:16 ();
          Mm_design.Segment.make ~name:"window" ~depth:512 ~width:8 ();
          Mm_design.Segment.make ~name:"frame" ~depth:65536 ~width:8 ();
        ]
    in
    Mm_io.Design_file.to_file design "design.mm";
    print_endline "wrote board.mm and design.mm; try: mmap solve -b board.mm -d design.mm"
  in
  Cmd.v (Cmd.info "example" ~doc:"Write template board.mm and design.mm files.")
    Term.(const run $ logs_term)


(* ---- solve-mps ------------------------------------------------------- *)

let solve_mps_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"MPS file to solve.")
  in
  let print_solution_arg =
    Arg.(value & flag & info [ "solution" ] ~doc:"Print variable values.")
  in
  let run () file knobs print_solution trace_out =
    let parsed =
      if Filename.check_suffix file ".lp" then Mm_lp.Lp_format.of_file file
      else Mm_lp.Mps.of_file file
    in
    match parsed with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 1
    | Ok p -> (
        Format.printf "%s: %a\n%!" file Mm_lp.Problem.pp_stats p;
        let trace =
          match trace_out with
          | None -> Mm_obs.Trace.disabled
          | Some _ -> Mm_obs.Trace.create ()
        in
        let options = Mm_service.Knobs.to_solver_options ~trace knobs in
        print_endline (Mm_mapping.Report.solver_config options);
        let r = Mm_lp.Solver.solve ~options p in
        (match trace_out with
        | None -> ()
        | Some path ->
            Mm_obs.Trace.write_jsonl trace path;
            Printf.printf "wrote trace %s\n" path);
        let mip = r.Mm_lp.Solver.mip in
        let status =
          let st = mip.Mm_lp.Branch_bound.status in
          Mm_lp.Branch_bound.status_to_string st
          ^
          match st with
          | Mm_lp.Branch_bound.Feasible | Mm_lp.Branch_bound.Unknown ->
              " (limit hit)"
          | _ -> ""
        in
        Printf.printf "status: %s | nodes: %d | time: %.3fs\n" status
          mip.Mm_lp.Branch_bound.nodes mip.Mm_lp.Branch_bound.time;
        Format.printf "lp core: %a | lp time %.3fs\n%!" Mm_lp.Simplex.pp_stats
          r.Mm_lp.Solver.stats.Mm_lp.Solver.lp
          r.Mm_lp.Solver.stats.Mm_lp.Solver.lp_time;
        (let st = r.Mm_lp.Solver.stats in
         if st.Mm_lp.Solver.cuts_added + st.Mm_lp.Solver.node_cuts_added > 0
         then
           Printf.printf "cuts: %s (%d root, %d node, %d dropped)\n"
             (String.concat ", "
                (List.map
                   (fun (fam, n) -> Printf.sprintf "%s=%d" fam n)
                   st.Mm_lp.Solver.cuts_by_family))
             st.Mm_lp.Solver.cuts_added st.Mm_lp.Solver.node_cuts_added
             st.Mm_lp.Solver.cuts_dropped);
        (match mip.Mm_lp.Branch_bound.incumbent_source with
        | Mm_lp.Branch_bound.No_incumbent -> ()
        | src ->
            Printf.printf "incumbent from: %s\n"
              (Mm_lp.Branch_bound.incumbent_source_to_string src));
        (match mip.Mm_lp.Branch_bound.objective with
        | Some o -> Printf.printf "objective: %.9g\n" o
        | None -> ());
        match (print_solution, mip.Mm_lp.Branch_bound.solution) with
        | true, Some x ->
            Array.iteri
              (fun j v ->
                if Float.abs v > 1e-9 then
                  Printf.printf "  %s = %.9g\n" p.Mm_lp.Problem.col_names.(j) v)
              x
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "solve-mps"
       ~doc:"Solve an arbitrary MPS (or .lp) file with the built-in MIP              solver.")
    Term.(
      const run $ logs_term $ file_arg $ Solver_flags.term
      $ print_solution_arg $ Solver_flags.trace_arg)

(* ---- serve ----------------------------------------------------------- *)

let socket_arg =
  Arg.(required & opt (some string) None & info [ "socket"; "s" ]
         ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains answering requests concurrently.")
  in
  let queue_arg =
    Arg.(value & opt int 16 & info [ "queue-capacity" ] ~docv:"N"
           ~doc:"Pending-request bound; requests beyond it are answered \
                 with $(b,overloaded) immediately (backpressure).")
  in
  let cache_arg =
    Arg.(value & opt int 64 & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Warm-start cache entries (boards) retained, LRU; \
                 $(b,0) disables warm starts.")
  in
  let cache_file_arg =
    Arg.(value & opt (some string) None & info [ "cache-file" ] ~docv:"PATH"
           ~doc:"Persist the warm-start cache: load $(docv) at startup \
                 (if present; a corrupt file is ignored) and save it on \
                 graceful shutdown, so a restarted daemon answers its \
                 first repeat requests warm.")
  in
  let run () socket workers queue_capacity cache_capacity cache_file knobs
      trace_out =
    let trace =
      match trace_out with
      | None -> Mm_obs.Trace.disabled
      | Some _ -> Mm_obs.Trace.create ()
    in
    let stats =
      try
        Mm_service.Server.run
          (Mm_service.Server.options ~workers ~queue_capacity ~cache_capacity
             ?cache_file ~default_knobs:knobs ~trace socket)
      with Mm_service.Server.Already_running path ->
        Printf.eprintf "mmap serve: a daemon is already listening on %s\n" path;
        exit 1
    in
    (match trace_out with
    | None -> ()
    | Some path ->
        Mm_obs.Trace.write_jsonl trace path;
        Printf.printf "wrote trace %s\n" path);
    Printf.printf
      "served: cache hits %d, misses %d, evictions %d, entries %d\n"
      stats.Mm_service.Cache.hits stats.Mm_service.Cache.misses
      stats.Mm_service.Cache.evictions stats.Mm_service.Cache.entries
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived mapping service: newline-delimited JSON \
             requests over a Unix socket, answered concurrently by a \
             worker-domain pool with per-board warm-start caching. The \
             solver flags set the default knobs for requests that carry \
             none. Stop it with $(b,mmap request --shutdown).")
    Term.(
      const run $ logs_term $ socket_arg $ workers_arg $ queue_arg
      $ cache_arg $ cache_file_arg $ Solver_flags.term
      $ Solver_flags.trace_arg)

(* ---- request ---------------------------------------------------------- *)

let request_cmd =
  let board_arg =
    Arg.(value & opt (some file) None & info [ "board"; "b" ] ~docv:"FILE"
           ~doc:"Board description file.")
  in
  let design_arg =
    Arg.(value & opt (some file) None & info [ "design"; "d" ] ~docv:"FILE"
           ~doc:"Design description file.")
  in
  let method_arg =
    Arg.(value & opt (enum [ ("global", Mm_mapping.Mapper.Global_detailed);
                             ("complete", Mm_mapping.Mapper.Complete_flat) ])
           Mm_mapping.Mapper.Global_detailed
         & info [ "method" ] ~doc:"Mapping method for the request.")
  in
  let id_arg =
    Arg.(value & opt string "cli" & info [ "id" ] ~docv:"ID"
           ~doc:"Correlation id echoed in the response.")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Send the mapping request $(docv) times on one \
                 connection (exercises the daemon's warm-start cache).")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Query daemon statistics instead of mapping.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the daemon to shut down gracefully.")
  in
  let retries_arg =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry a request answered $(b,overloaded) up to $(docv) \
                 extra times with exponential backoff and jitter \
                 (default $(b,0): backpressure is surfaced, not absorbed).")
  in
  let backoff_arg =
    Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"SECONDS"
           ~doc:"Initial retry backoff; doubles per attempt (with \
                 $(b,--retries)).")
  in
  let run () socket board design method_ id repeat knobs stats shutdown
      retries backoff =
    let fail msg =
      Printf.eprintf "%s\n" msg;
      exit 1
    in
    let op name =
      Mm_obs.Json.to_string
        (Mm_obs.Json.Obj
           [ ("id", Mm_obs.Json.Str id); ("op", Mm_obs.Json.Str name) ])
    in
    let lines =
      if stats then [ op "stats" ]
      else if shutdown then [ op "shutdown" ]
      else
        match (board, design) with
        | Some b, Some d ->
            let board = read_board b and design = read_design d in
            let line i =
              Mm_obs.Json.to_string
                (Mm_service.Request.to_json
                   (Mm_service.Request.make
                      ~id:(if repeat = 1 then id
                           else Printf.sprintf "%s-%d" id i)
                      ~method_ ~knobs board design))
            in
            List.init (max 1 repeat) line
        | _ -> fail "request: need --board and --design (or --stats/--shutdown)"
    in
    let resps =
      if retries <= 0 then Mm_service.Client.roundtrip ~socket lines
      else
        (* per-line connections: an overloaded answer releases the
           daemon-side reader between attempts, and each line backs
           off independently *)
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              match
                Mm_service.Client.request_retry ~retries ~backoff ~socket line
              with
              | Error e, _ -> Error e
              | Ok resp, attempts ->
                  if attempts > 1 then
                    Printf.eprintf "request: %d attempts\n%!" attempts;
                  go (resp :: acc) rest)
        in
        go [] lines
    in
    match resps with
    | Error e -> fail e
    | Ok resps ->
        List.iter print_endline resps;
        (* nonzero exit when any response is an error, so scripts can
           chain requests without parsing JSON *)
        let failed =
          List.exists
            (fun r ->
              match Mm_obs.Json.of_string r with
              | Ok j ->
                  Option.bind (Mm_obs.Json.member "status" j)
                    Mm_obs.Json.to_str
                  = Some "error"
              | Error _ -> true)
            resps
        in
        if failed then exit 2
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send requests to a running $(b,mmap serve) daemon and print \
             the JSON response lines. The solver flags become the \
             request's knobs.")
    Term.(
      const run $ logs_term $ socket_arg $ board_arg $ design_arg
      $ method_arg $ id_arg $ repeat_arg $ Solver_flags.term $ stats_arg
      $ shutdown_arg $ retries_arg $ backoff_arg)

(* ---- trace-summary ---------------------------------------------------- *)

let trace_summary_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"JSONL trace file written by $(b,--trace).")
  in
  let run () file =
    match Mm_obs.Summary.read_file file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 1
    | Ok events ->
        Printf.printf "%s: %d events\n" file (List.length events);
        print_string (Mm_obs.Summary.render events)
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Summarize a solve trace: per-phase time breakdown, counters, \
             latency histograms, per-domain search statistics and a \
             node-throughput timeline.")
    Term.(const run $ logs_term $ file_arg)

(* ---- fuzz ------------------------------------------------------------ *)

let fuzz_cmd =
  let cases_arg =
    Arg.(value & opt int 2000 & info [ "cases"; "n" ] ~docv:"N"
           ~doc:"Differential cases to run.")
  in
  let seed_arg =
    Arg.(value & opt int 2026 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed; case $(i,i) derives its own seed from \
                 $(i,SEED) and $(i,i), so single cases replay in \
                 isolation.")
  in
  let time_limit_arg =
    Arg.(value & opt float 60.0 & info [ "time-limit" ] ~docv:"SECONDS"
           ~doc:"Per-solve wall-clock limit; limit hits are skipped, \
                 not failed.")
  in
  let replay_dir_arg =
    Arg.(value & opt (some string) None & info [ "replay-dir" ] ~docv:"DIR"
           ~doc:"Write each (shrunk) failing case to $(i,DIR) as a JSON \
                 replay file.")
  in
  let replay_arg =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a single saved case against the full \
                 configuration matrix, then exit.")
  in
  let corpus_arg =
    Arg.(value & opt (some dir) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Instead of generating cases, solve every .mps file in \
                 $(i,DIR) and check each against its MANIFEST line.")
  in
  let max_failures_arg =
    Arg.(value & opt int 1 & info [ "max-failures" ] ~docv:"N"
           ~doc:"Stop the campaign after this many failures.")
  in
  let run () cases seed time_limit replay_dir replay corpus max_failures =
    match (replay, corpus) with
    | Some file, _ -> (
        match Mm_fuzz.Replay.load file with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        | Ok case -> (
            Printf.printf "replaying %s\n%!" (Mm_fuzz.Case.describe case);
            match Mm_fuzz.Campaign.run_one ~time_limit case with
            | Ok r ->
                Printf.printf "ok: %d arms agree%s\n" r.Mm_fuzz.Differential.arms_run
                  (if r.Mm_fuzz.Differential.oracle_checked then
                     " (oracle checked)"
                   else "")
            | Error f ->
                Printf.eprintf "FAIL %s\n" (Mm_fuzz.Differential.failure_to_string f);
                exit 1))
    | None, Some dir -> (
        match Mm_fuzz.Corpus.run ~time_limit ~dir () with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        | Ok s ->
            Printf.printf "corpus: %d files checked, %d matched manifest\n"
              s.Mm_fuzz.Corpus.checked s.Mm_fuzz.Corpus.matched;
            if s.Mm_fuzz.Corpus.errors <> [] then begin
              List.iter
                (fun (file, msg) -> Printf.eprintf "FAIL %s: %s\n" file msg)
                s.Mm_fuzz.Corpus.errors;
              exit 1
            end)
    | None, None ->
        let config =
          {
            Mm_fuzz.Campaign.cases;
            seed;
            time_limit;
            replay_dir;
            max_failures;
          }
        in
        let progress i (o : Mm_fuzz.Campaign.outcome) =
          Printf.printf
            "%d/%d cases | %d solves | %d oracle-checked | %d skipped | %d limit hits\n%!"
            i cases o.Mm_fuzz.Campaign.solves o.Mm_fuzz.Campaign.oracle_checks
            o.Mm_fuzz.Campaign.skipped o.Mm_fuzz.Campaign.limit_hits
        in
        let o = Mm_fuzz.Campaign.run ~progress config in
        Printf.printf
          "campaign: %d cases (%d executed, %d skipped), %d solves, %d \
           oracle-checked, %d limit hits\n"
          o.Mm_fuzz.Campaign.generated o.Mm_fuzz.Campaign.executed
          o.Mm_fuzz.Campaign.skipped o.Mm_fuzz.Campaign.solves
          o.Mm_fuzz.Campaign.oracle_checks o.Mm_fuzz.Campaign.limit_hits;
        if o.Mm_fuzz.Campaign.failures <> [] then begin
          List.iter
            (fun f ->
              Printf.eprintf "FAIL %s\n" (Mm_fuzz.Differential.failure_to_string f))
            o.Mm_fuzz.Campaign.failures;
          (match replay_dir with
          | Some d -> Printf.eprintf "replay files written under %s\n" d
          | None -> ());
          exit 1
        end;
        print_endline "no disagreements"
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing of the MIP core: solve generated \
             instances under many solver configurations (parallelism, \
             cuts, warm starts, LU kernels) plus a brute-force oracle on \
             small binary cases, and fail on any disagreement. Failing \
             cases are shrunk to minimal reproducers.")
    Term.(
      const run $ logs_term $ cases_arg $ seed_arg $ time_limit_arg
      $ replay_dir_arg $ replay_arg $ corpus_arg $ max_failures_arg)

let () =
  let info =
    Cmd.info "mmap" ~version:"1.0.0"
      ~doc:"Global/detailed memory mapping for FPGA-based reconfigurable systems"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd;
            solve_mps_cmd;
            serve_cmd;
            request_cmd;
            trace_summary_cmd;
            fuzz_cmd;
            generate_cmd;
            devices_cmd;
            example_cmd;
          ]))
