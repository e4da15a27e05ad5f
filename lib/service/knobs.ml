open Mm_lp

type t = {
  parallelism : int;
  cuts : bool;
  heuristics : bool;
  time_limit : float option;
}

(* Each tree worker is one domain, and [Branch_bound.solve] builds
   every worker's simplex instance before it spawns any. The OCaml 5
   runtime allows 128 live domains, shared with the daemon's own
   worker domains, so one request may ask for at most this many. *)
let max_parallelism = 32

let check_parallelism n =
  if n < 0 || n > max_parallelism then
    Error
      (Printf.sprintf "knobs: parallelism must lie in 0..%d, got %d"
         max_parallelism n)
  else Ok n

let default =
  let s = Solver.default_options in
  let bb = s.Solver.bb in
  {
    parallelism = bb.Branch_bound.parallelism;
    cuts = s.Solver.separators <> [];
    heuristics = s.Solver.heuristics;
    time_limit = bb.Branch_bound.time_limit;
  }

let make ?(parallelism = default.parallelism) ?(cuts = default.cuts)
    ?(heuristics = default.heuristics) ?time_limit () =
  { parallelism; cuts; heuristics; time_limit }

let to_solver_options ?trace k =
  Solver.options
    ?separators:(if k.cuts then None else Some [])
    ~heuristics:k.heuristics ?trace
    ~bb:
      (Branch_bound.options ~parallelism:k.parallelism
         ?time_limit:k.time_limit ())
    ()

(* All fields except [time_limit] shape the ILP or the search order, so
   they key the warm cache. [time_limit] only truncates the search —
   warm state trained under one budget stays valid under another. *)
let fingerprint_fields k =
  [
    ("parallelism", string_of_int k.parallelism);
    ("cuts", string_of_bool k.cuts);
    ("heuristics", string_of_bool k.heuristics);
  ]

let fingerprint_string k =
  String.concat ";"
    (List.map (fun (f, v) -> f ^ "=" ^ v) (fingerprint_fields k))

let to_json k =
  let module J = Mm_obs.Json in
  J.Obj
    [
      ("parallelism", J.Num (float_of_int k.parallelism));
      ("cuts", J.Bool k.cuts);
      ("heuristics", J.Bool k.heuristics);
      ( "time_limit",
        match k.time_limit with None -> J.Null | Some tl -> J.Num tl );
    ]

let fields =
  match to_json default with
  | Mm_obs.Json.Obj kvs -> List.map fst kvs
  | _ -> assert false

let of_json j =
  let module J = Mm_obs.Json in
  let err f = Error (Printf.sprintf "knobs: bad %s field" f) in
  let boolean f d =
    match J.member f j with
    | None | Some J.Null -> Ok d
    | Some (J.Bool b) -> Ok b
    | Some _ -> err f
  in
  let ( let* ) = Result.bind in
  (* a removed or misspelled field must not be silently served the
     default configuration *)
  let* () =
    match j with
    | J.Obj kvs -> (
        match List.find_opt (fun (f, _) -> not (List.mem f fields)) kvs with
        | Some (f, _) -> Error (Printf.sprintf "knobs: unknown field %S" f)
        | None -> Ok ())
    | _ -> Ok ()
  in
  let* parallelism =
    match J.member "parallelism" j with
    | None -> Ok default.parallelism
    | Some v -> (
        match J.to_int v with
        | Some n -> check_parallelism n
        | None -> err "parallelism")
  in
  let* cuts = boolean "cuts" default.cuts in
  let* heuristics = boolean "heuristics" default.heuristics in
  let* time_limit =
    match J.member "time_limit" j with
    | None | Some J.Null -> Ok None
    | Some v -> (
        match J.to_float v with
        | Some tl when tl > 0.0 -> Ok (Some tl)
        | _ -> err "time_limit")
  in
  Ok { parallelism; cuts; heuristics; time_limit }
