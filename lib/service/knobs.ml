open Mm_lp

type t = {
  parallelism : int;
  cuts : bool;
  cut_rounds : int;
  max_cuts_per_round : int;
  heuristics : bool;
  time_limit : float option;
}

let default =
  let s = Solver.default_options in
  let bb = s.Solver.bb in
  {
    parallelism = bb.Branch_bound.parallelism;
    cuts = s.Solver.cuts;
    cut_rounds = s.Solver.cut_rounds;
    max_cuts_per_round = s.Solver.max_cuts_per_round;
    heuristics = s.Solver.heuristics;
    time_limit = bb.Branch_bound.time_limit;
  }

let make ?(parallelism = default.parallelism) ?(cuts = default.cuts)
    ?(cut_rounds = default.cut_rounds)
    ?(max_cuts_per_round = default.max_cuts_per_round)
    ?(heuristics = default.heuristics) ?time_limit () =
  { parallelism; cuts; cut_rounds; max_cuts_per_round; heuristics; time_limit }

let to_solver_options ?trace k =
  Solver.options ~cuts:k.cuts ~cut_rounds:k.cut_rounds
    ~max_cuts_per_round:k.max_cuts_per_round ~heuristics:k.heuristics ?trace
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
    ("cut_rounds", string_of_int k.cut_rounds);
    ("max_cuts_per_round", string_of_int k.max_cuts_per_round);
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
      ("cut_rounds", J.Num (float_of_int k.cut_rounds));
      ("max_cuts_per_round", J.Num (float_of_int k.max_cuts_per_round));
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
  let int f d =
    match J.member f j with
    | None -> Ok d
    | Some v -> ( match J.to_int v with Some n -> Ok n | None -> err f)
  in
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
  let* parallelism = int "parallelism" default.parallelism in
  let* cuts = boolean "cuts" default.cuts in
  let* cut_rounds = int "cut_rounds" default.cut_rounds in
  let* max_cuts_per_round =
    int "max_cuts_per_round" default.max_cuts_per_round
  in
  let* heuristics = boolean "heuristics" default.heuristics in
  let* time_limit =
    match J.member "time_limit" j with
    | None | Some J.Null -> Ok None
    | Some v -> (
        match J.to_float v with
        | Some tl when tl > 0.0 -> Ok (Some tl)
        | _ -> err "time_limit")
  in
  Ok
    { parallelism; cuts; cut_rounds; max_cuts_per_round; heuristics; time_limit }
