open Mm_lp

type assignment = int array

type ctx = {
  weights : Cost.weights;
  access_model : Cost.access_model;
  port_model : Preprocess.port_model option;
  arbitration : bool;
  forbidden : assignment list;
  disaggregated_linking : bool;
  assignment : assignment option;
  type_index : int option;
  symmetry_breaking : bool;
  board : Mm_arch.Board.t;
  design : Mm_design.Design.t;
}

let ctx ?(weights = Cost.default_weights) ?(access_model = Cost.Uniform)
    ?port_model ?(arbitration = false) ?(forbidden = [])
    ?(disaggregated_linking = false) ?assignment ?type_index
    ?(symmetry_breaking = true) board design =
  {
    weights;
    access_model;
    port_model;
    arbitration;
    forbidden;
    disaggregated_linking;
    assignment;
    type_index;
    symmetry_breaking;
    board;
    design;
  }

module type S = sig
  type solution

  val name : string
  val supports_forbidden : bool
  val build : ctx -> (Problem.t * (float array -> solution), string) result
end

type 's t = (module S with type solution = 's)

type stats = {
  ilp : Solver.result;
  build_seconds : float;
  solve_seconds : float;
}

type error = Build_failed of string | Ilp_infeasible | Ilp_limit

let solve_built ?solver_options ?warm ~build_seconds problem read =
  let t1 = Unix.gettimeofday () in
  let result = Solver.solve ?options:solver_options ?warm problem in
  let solve_seconds = Unix.gettimeofday () -. t1 in
  let stats = { ilp = result; build_seconds; solve_seconds } in
  match result.Solver.mip.Branch_bound.solution with
  | Some x -> Ok (read x, stats)
  | None -> (
      match result.Solver.mip.Branch_bound.status with
      | Branch_bound.Infeasible -> Error (Ilp_infeasible, Some stats)
      | _ -> Error (Ilp_limit, Some stats))

let solve (type s) (fm : s t) ?solver_options ?warm c =
  let module F = (val fm : S with type solution = s) in
  let snk =
    let o = Option.value solver_options ~default:Solver.default_options in
    Mm_obs.Trace.root o.Solver.bb.Branch_bound.trace
  in
  let t0 = Unix.gettimeofday () in
  match Mm_obs.Trace.span snk "build" (fun () -> F.build c) with
  | Error msg -> Error (Build_failed msg, None)
  | Ok (problem, read) ->
      solve_built ?solver_options ?warm
        ~build_seconds:(Unix.gettimeofday () -. t0)
        problem read
