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

let parallelism_arg =
  Arg.(value & opt int default.parallelism & info [ "j"; "parallelism" ]
         ~docv:"N"
         ~doc:"Worker domains for the branch-and-bound tree search. \
               $(b,1) (default) is the deterministic serial schedule; \
               $(b,0) uses all available cores. Any value proves the \
               same optimal objective.")

let cut_rounds_arg =
  Arg.(value & opt int default.cut_rounds & info [ "cut-rounds" ] ~docv:"N"
         ~doc:"Root cutting-plane separation rounds ($(b,0) keeps the \
               solver cut-free at the root; node cuts may still fire).")

let max_cuts_arg =
  Arg.(value & opt int default.max_cuts_per_round
       & info [ "max-cuts-per-round" ] ~docv:"N"
           ~doc:"Cap on cuts accepted per separation round.")

let no_cuts_arg =
  Arg.(value & flag & info [ "no-cuts" ]
         ~doc:"Disable cutting planes entirely (root and node).")

let no_heuristics_arg =
  Arg.(value & flag & info [ "no-heuristics" ]
         ~doc:"Disable the GUB diving heuristic that seeds the incumbent \
               before the tree search.")

let term : Mm_service.Knobs.t Term.t =
  let make time_limit parallelism cut_rounds max_cuts_per_round no_cuts
      no_heuristics =
    Mm_service.Knobs.make ~parallelism ~cuts:(not no_cuts) ~cut_rounds
      ~max_cuts_per_round ~heuristics:(not no_heuristics) ?time_limit ()
  in
  Term.(
    const make $ time_limit_arg $ parallelism_arg $ cut_rounds_arg
    $ max_cuts_arg $ no_cuts_arg $ no_heuristics_arg)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a structured trace (JSONL) to $(docv); inspect it \
               with $(b,mmap trace-summary).")
