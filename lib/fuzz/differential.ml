module Problem = Mm_lp.Problem
module Solver = Mm_lp.Solver
module BB = Mm_lp.Branch_bound

type report = {
  skipped : bool;
  limit_hit : bool;
  oracle_checked : bool;
  arms_run : int;
}

type failure = { case : Case.t; arm : string; reason : string }

let failure_to_string f =
  Printf.sprintf "[%s] %s: %s" f.arm (Case.describe f.case) f.reason

let obj_eq a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

(* a limit-hit result proves nothing either way; skip its comparisons *)
let hit_limit (r : Solver.result) =
  match r.Solver.mip.BB.status with
  | BB.Feasible | BB.Unknown -> true
  | BB.Optimal | BB.Infeasible | BB.Unbounded -> false

(* intrinsic validation of one Optimal result: the incumbent must exist,
   be feasible for the original problem, and evaluate to the reported
   objective *)
let validate_optimal p (r : Solver.result) =
  match (r.Solver.mip.BB.solution, r.Solver.mip.BB.objective) with
  | None, _ | _, None -> Error "optimal status without an incumbent"
  | Some x, Some obj ->
      if Array.length x <> p.Problem.ncols then
        Error
          (Printf.sprintf "solution has %d entries for %d columns"
             (Array.length x) p.Problem.ncols)
      else if not (Problem.is_feasible ~tol:1e-5 p x) then
        Error
          (Printf.sprintf "incumbent infeasible (max violation %g)"
             (Float.max (Problem.max_violation p x)
                (Problem.integer_violation p x)))
      else begin
        let v = Problem.objective_value p x in
        if not (obj_eq v obj) then
          Error
            (Printf.sprintf
               "incumbent evaluates to %.9g but objective reports %.9g" v obj)
        else Ok ()
      end

let run_case ?(time_limit = 60.0) ~arms case =
  match Case.problem case with
  | None -> Ok { skipped = true; limit_hit = false; oracle_checked = false; arms_run = 0 }
  | Some p -> (
      let fail arm reason = Error { case; arm; reason } in
      match Problem.validate p with
      | Error msg -> fail "validation" ("generated problem malformed: " ^ msg)
      | Ok () -> (
          let ref_res = Arm.solve ~time_limit Arm.reference p in
          if hit_limit ref_res then
            Ok
              {
                skipped = false;
                limit_hit = true;
                oracle_checked = false;
                arms_run = 1;
              }
          else
            let ref_status = ref_res.Solver.mip.BB.status in
            let ref_obj = ref_res.Solver.mip.BB.objective in
            let intrinsic =
              match ref_status with
              | BB.Optimal -> validate_optimal p ref_res
              | BB.Infeasible -> Ok ()
              | s ->
                  Error
                    (Printf.sprintf "unexpected status %s on a bounded problem"
                       (BB.status_to_string s))
            in
            match intrinsic with
            | Error reason -> fail "validation" reason
            | Ok () -> (
                let oracle_result =
                  match case with
                  | Case.Mip _ -> Oracle.check p
                  | Case.Workload _ -> `Too_big
                in
                let oracle_verdict =
                  match (oracle_result, ref_status, ref_obj) with
                  | `Too_big, _, _ -> Ok false
                  | `Infeasible, BB.Infeasible, _ -> Ok true
                  | `Infeasible, s, _ ->
                      Error
                        (Printf.sprintf
                           "oracle proves infeasible, solver says %s"
                           (BB.status_to_string s))
                  | `Optimal v, BB.Optimal, Some obj when obj_eq v obj ->
                      Ok true
                  | `Optimal v, BB.Optimal, Some obj ->
                      Error
                        (Printf.sprintf
                           "oracle optimum %.9g, solver optimum %.9g" v obj)
                  | `Optimal v, s, _ ->
                      Error
                        (Printf.sprintf
                           "oracle optimum %.9g, solver says %s" v
                           (BB.status_to_string s))
                in
                match oracle_verdict with
                | Error reason -> fail "oracle" reason
                | Ok oracle_checked ->
                    let limit = ref false in
                    let compare_arm (a : Arm.t) =
                      let res = Arm.solve ~time_limit a p in
                      if hit_limit res then begin
                        limit := true;
                        Ok ()
                      end
                      else begin
                        let status = res.Solver.mip.BB.status in
                        if status <> ref_status then
                          Error
                            ( a.Arm.name,
                              Printf.sprintf "status %s, reference %s"
                                (BB.status_to_string status)
                                (BB.status_to_string ref_status) )
                        else
                          match (ref_obj, res.Solver.mip.BB.objective) with
                          | Some r, Some o when not (obj_eq r o) ->
                              Error
                                ( a.Arm.name,
                                  Printf.sprintf
                                    "objective %.9g, reference %.9g" o r )
                          | _ -> (
                              match status with
                              | BB.Optimal -> (
                                  match validate_optimal p res with
                                  | Ok () -> Ok ()
                                  | Error reason -> Error (a.Arm.name, reason))
                              | _ -> Ok ())
                      end
                    in
                    let rec loop = function
                      | [] ->
                          Ok
                            {
                              skipped = false;
                              limit_hit = !limit;
                              oracle_checked;
                              arms_run = 1 + List.length arms;
                            }
                      | a :: rest -> (
                          match compare_arm a with
                          | Ok () -> loop rest
                          | Error (arm, reason) -> fail arm reason)
                    in
                    loop arms)))
