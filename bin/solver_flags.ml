(* The one Cmdliner spec for the MIP-solver knobs, shared by [solve],
   [solve-mps] and [serve] (where it sets the daemon's default knobs).
   Evaluates to an [Mm_service.Knobs.t]; adding a knob here surfaces it
   on all three subcommands and — via the [Knobs] JSON codec — on the
   service wire format at once. *)

open Cmdliner

let default = Mm_service.Knobs.default

let time_limit_arg =
  Arg.(value & opt (some float) default.time_limit & info [ "time-limit" ]
         ~docv:"SECONDS" ~doc:"Wall-clock budget for each ILP solve.")

(* an integer that [Knobs.check_parallelism] accepts, the bound a
   request's [knobs] object is held to *)
let parallelism_conv =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        Result.map_error (fun e -> `Msg e)
          (Mm_service.Knobs.check_parallelism n))
  in
  Arg.conv (parse, Format.pp_print_int)

let parallelism_arg =
  Arg.(value & opt parallelism_conv default.parallelism
       & info [ "j"; "parallelism" ]
         ~docv:"N"
         ~doc:
           (Printf.sprintf
              "Worker domains for the branch-and-bound tree search. \
               $(b,1) (default) is the deterministic serial schedule; \
               $(b,0) uses all available cores; at most %d. Any value \
               proves the same optimal objective."
              Mm_service.Knobs.max_parallelism))

let no_cuts_arg =
  Arg.(value & flag & info [ "no-cuts" ]
         ~doc:"Disable cutting planes entirely (root and node).")

let no_heuristics_arg =
  Arg.(value & flag & info [ "no-heuristics" ]
         ~doc:"Disable the GUB diving heuristic that seeds the incumbent \
               before the tree search.")

let term : Mm_service.Knobs.t Term.t =
  let make time_limit parallelism no_cuts no_heuristics =
    Mm_service.Knobs.make ~parallelism ~cuts:(not no_cuts)
      ~heuristics:(not no_heuristics) ?time_limit ()
  in
  Term.(
    const make $ time_limit_arg $ parallelism_arg $ no_cuts_arg
    $ no_heuristics_arg)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a structured trace (JSONL) to $(docv); inspect it \
               with $(b,mmap trace-summary).")
