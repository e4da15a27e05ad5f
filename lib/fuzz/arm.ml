module Solver = Mm_lp.Solver
module Branch_bound = Mm_lp.Branch_bound

type cuts_mode = Full | Off | Baseline

type t = {
  name : string;
  parallelism : int;
  lu_kernel : Mm_lp.Lu.kernel;
  cuts : cuts_mode;
  warm : bool;
}

let mk ?(lu_kernel = Mm_lp.Lu.Auto) name parallelism cuts warm =
  { name; parallelism; lu_kernel; cuts; warm }

let reference = mk "j1-devex-full" 1 Full false

let matrix =
  [
    mk "j2-devex-full" 2 Full false;
    mk "j4-devex-full" 4 Full false;
    mk "j1-devex-baseline" 1 Baseline false;
    mk "j2-devex-baseline" 2 Baseline false;
    mk "j2-devex-full-warm" 2 Full true;
    (* fuzz instances sit far below the Auto size floor, so the Auto
       arms all run dense sweeps and a serial Auto arm would repeat its
       forced-Dense twin pivot for pivot; the forced-Sparse [-slu] arms
       are what actually drags the hypersparse path through the
       campaign, and the forced-Dense [-dlu] arms pin the baseline. *)
    mk ~lu_kernel:Mm_lp.Lu.Sparse "j1-devex-full-slu" 1 Full false;
    mk ~lu_kernel:Mm_lp.Lu.Sparse "j2-devex-full-slu" 2 Full false;
    mk ~lu_kernel:Mm_lp.Lu.Dense "j1-devex-nocuts-dlu" 1 Off false;
    mk ~lu_kernel:Mm_lp.Lu.Dense "j1-devex-full-warm-dlu" 1 Full true;
  ]

let solver_options ?time_limit t =
  let o =
    Solver.options ~cuts:(t.cuts <> Off)
      ~bb:
        (Branch_bound.options ?time_limit ~parallelism:t.parallelism
           ~lu_kernel:t.lu_kernel ())
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
