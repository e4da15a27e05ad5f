module Problem = Mm_lp.Problem
module Solver = Mm_lp.Solver
module BB = Mm_lp.Branch_bound
module Mps = Mm_lp.Mps

type entry = { file : string; expected : string; objective : float option }
type stats = { checked : int; matched : int; errors : (string * string) list }

let parse_manifest text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (n + 1) acc rest
        else
          match
            String.split_on_char ' ' line
            |> List.filter (fun s -> s <> "")
          with
          | [ file; expected ] when List.mem expected [ "optimal"; "infeasible"; "unbounded" ] ->
              go (n + 1) ({ file; expected; objective = None } :: acc) rest
          | [ file; "optimal"; obj ] -> (
              match float_of_string_opt obj with
              | Some v ->
                  go (n + 1)
                    ({ file; expected = "optimal"; objective = Some v } :: acc)
                    rest
              | None ->
                  Error (Printf.sprintf "line %d: bad objective %S" n obj))
          | _ -> Error (Printf.sprintf "line %d: cannot parse %S" n line))
  in
  go 1 [] lines

let obj_eq a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

let check_file ?time_limit dir (e : entry option) file =
  let path = Filename.concat dir file in
  match Mps.of_file path with
  | Error msg -> Error (Printf.sprintf "parse: %s" msg)
  | Ok p -> (
      match Problem.validate p with
      | Error msg -> Error (Printf.sprintf "invalid problem: %s" msg)
      | Ok () -> (
          let r = Arm.solve ?time_limit Arm.reference p in
          let status = r.Solver.mip.BB.status in
          (* intrinsic check first: an optimal incumbent must be
             feasible and evaluate to the reported objective *)
          let intrinsic =
            match (status, r.Solver.mip.BB.solution, r.Solver.mip.BB.objective) with
            | BB.Optimal, Some x, Some obj ->
                if not (Problem.is_feasible ~tol:1e-5 p x) then
                  Error "optimal incumbent infeasible"
                else if not (obj_eq (Problem.objective_value p x) obj) then
                  Error "incumbent does not evaluate to reported objective"
                else Ok ()
            | BB.Optimal, _, _ -> Error "optimal status without incumbent"
            | _ -> Ok ()
          in
          match intrinsic with
          | Error _ as e -> e
          | Ok () -> (
              match e with
              | None -> Ok ()
              | Some e ->
                  if BB.status_to_string status <> e.expected then
                    Error
                      (Printf.sprintf "expected %s, got %s" e.expected
                         (BB.status_to_string status))
                  else
                    (match (e.objective, r.Solver.mip.BB.objective) with
                    | Some want, Some got when not (obj_eq want got) ->
                        Error
                          (Printf.sprintf "expected objective %g, got %.9g"
                             want got)
                    | Some want, None ->
                        Error
                          (Printf.sprintf "expected objective %g, got none"
                             want)
                    | _ -> Ok ()))))

let run ?time_limit ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else
    let manifest_path = Filename.concat dir "MANIFEST" in
    let manifest =
      if Sys.file_exists manifest_path then begin
        let ic = open_in manifest_path in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        parse_manifest text
      end
      else Ok []
    in
    match manifest with
    | Error msg -> Error (Printf.sprintf "%s: %s" manifest_path msg)
    | Ok entries ->
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".mps")
          |> List.sort compare
        in
        let checked = ref 0 and matched = ref 0 and errors = ref [] in
        List.iter
          (fun file ->
            let entry = List.find_opt (fun e -> e.file = file) entries in
            incr checked;
            match check_file ?time_limit dir entry file with
            | Ok () -> if entry <> None then incr matched
            | Error msg -> errors := (file, msg) :: !errors)
          files;
        (* manifest lines pointing at absent files are also errors *)
        List.iter
          (fun e ->
            if not (List.mem e.file files) then
              errors := (e.file, "listed in MANIFEST but not present") :: !errors)
          entries;
        Ok { checked = !checked; matched = !matched; errors = List.rev !errors }
