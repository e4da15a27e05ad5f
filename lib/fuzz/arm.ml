module Solver = Mm_lp.Solver
module Branch_bound = Mm_lp.Branch_bound

type cuts_mode = Full | Off | Baseline

type t = {
  name : string;
  parallelism : int;
  cuts : cuts_mode;
  warm : bool;
}

let mk name parallelism cuts warm = { name; parallelism; cuts; warm }

let reference = mk "j1-devex-full" 1 Full false

let matrix =
  [
    mk "j2-devex-full" 2 Full false;
    mk "j4-devex-full" 4 Full false;
    mk "j1-devex-baseline" 1 Baseline false;
    mk "j2-devex-baseline" 2 Baseline false;
    mk "j2-devex-full-warm" 2 Full true;
    mk "j1-devex-nocuts" 1 Off false;
    mk "j1-devex-full-warm" 1 Full true;
  ]

let solver_options ?time_limit t =
  let o =
    Solver.options ~cuts:(t.cuts <> Off)
      ~bb:
        (Branch_bound.options ?time_limit ~parallelism:t.parallelism ())
      ()
  in
  if t.cuts = Baseline then Solver.cover_only o else o

let solve ?time_limit t p =
  let options = solver_options ?time_limit t in
  if not t.warm then Solver.solve ~options p
  else begin
    (* first solve trains the state, the reported result is the
       warm-started repeat — the mapping service's hot path *)
    let warm = Solver.warm () in
    ignore (Solver.solve ~options ~warm p);
    Solver.solve ~options ~warm p
  end
