let src = Logs.Src.create "mm_lp.solver" ~doc:"solver facade"

module Log = (val Logs.src_log src : Logs.LOG)

type options = {
  presolve : bool;
  cut_max_age : int;
  separators : Separator.t list;
  heuristics : bool;
  bb : Branch_bound.options;
}

let default_options =
  {
    presolve = true;
    cut_max_age = 8;
    separators = Separator.default;
    heuristics = true;
    bb = Branch_bound.default_options;
  }

let options ?(presolve = default_options.presolve)
    ?(cut_max_age = default_options.cut_max_age)
    ?(separators = default_options.separators)
    ?(heuristics = default_options.heuristics) ?trace
    ?(bb = default_options.bb) () =
  let bb =
    match trace with None -> bb | Some trace -> { bb with Branch_bound.trace }
  in
  { presolve; cut_max_age; separators; heuristics; bb }

(* The historical root behavior — knapsack covers only, no node
   separation, no diving, no aging — as a degenerate configuration of
   the full stack. The pool's scoring and ordering reproduce the old
   cut loop pivot for pivot, which makes it the cut-validity anchor. *)
let cover_only o =
  {
    o with
    separators = Separator.cover_only;
    cut_max_age = max_int;
    heuristics = false;
    bb = { o.bb with Branch_bound.node_cut_depth = 0 };
  }

type stats = {
  presolved_from : int * int;
  presolved_to : int * int;
  cuts_added : int;
  node_cuts_added : int;
  cuts_dropped : int;
  cuts_by_family : (string * int) list;
  heuristic_obj : float option;
  heuristic_dives : int;
  lp : Simplex.stats;
  lp_time : float;
  parallel : Branch_bound.par_stats;
  warm_applied : string list;
  warm_mismatches : int;
}

type result = { mip : Branch_bound.result; stats : stats }

(* The root a solve ended with, on the cut-extended reduced problem:
   the surviving root cuts, the root LP basis the tree started from and
   the final solution. In memory only: a cut read back from a file
   could not be checked, and an invalid one proves a wrong optimum. *)
type root = {
  r_cuts : Separator.cut list;
  r_basis : Simplex.basis option;
  r_solution : float array option;
}

(* Warm-start state carried between solves of one problem: the cached
   presolve (reduced problem + recovery closure), the pre-cut root
   optimum's basis, the trained pseudocosts and the root the last solve
   ended with. [w_digest] names the problem and options that trained
   it; [solve] wipes every component on a mismatch before using any.
   Not thread-safe: lease one warm state to one solve at a time. *)
type warm = {
  mutable w_digest : int option;
  mutable w_presolved : (Problem.t * (float array -> float array)) option;
  mutable w_orig_dims : int * int;
  mutable w_basis : Simplex.basis option;
  mutable w_basis_dims : int * int;
  mutable w_pc : Branch_bound.pseudocosts option;
  mutable w_root : root option;
  mutable w_solves : int;
}

let warm () =
  {
    w_digest = None;
    w_presolved = None;
    w_orig_dims = (0, 0);
    w_basis = None;
    w_basis_dims = (0, 0);
    w_pc = None;
    w_root = None;
    w_solves = 0;
  }

let warm_solves w = w.w_solves
let warm_has_basis w = w.w_basis <> None

(* The content guard's key: the original problem's numbers — sizes,
   objective, bounds, kinds, matrix — and the options that shape what a
   warm state carries. Names are left out; nothing carried depends on
   them. A 63-bit multiply-xorshift mix, one step per word. *)
let digest o (p : Problem.t) =
  let h = ref 0x2545F4914F6CDD1D in
  let mix v =
    let x = (!h lxor v) * 0x1E3779B97F4A7C15 in
    h := x lxor (x lsr 29)
  in
  let mix_float f =
    let b = Int64.bits_of_float f in
    mix (Int64.to_int b);
    mix (Int64.to_int (Int64.shift_right_logical b 32))
  in
  let mix_floats = Array.iter mix_float in
  let mix_bool b = mix (Bool.to_int b) in
  mix p.Problem.ncols;
  mix p.Problem.nrows;
  mix_floats p.Problem.obj;
  mix_float p.Problem.obj_const;
  mix_bool p.Problem.maximize_input;
  mix_floats p.Problem.col_lb;
  mix_floats p.Problem.col_ub;
  Array.iter
    (function
      | Problem.Continuous -> mix 0
      | Problem.Integer -> mix 1
      | Problem.Binary -> mix 2)
    p.Problem.kind;
  mix_floats p.Problem.row_lb;
  mix_floats p.Problem.row_ub;
  Array.iter
    (fun (idx, v) ->
      mix (Array.length idx);
      Array.iter mix idx;
      mix_floats v)
    p.Problem.cols;
  mix_bool o.presolve;
  mix o.cut_max_age;
  List.iter (fun sep -> mix (Hashtbl.hash (Separator.name sep))) o.separators;
  mix (List.length o.separators);
  mix_bool o.heuristics;
  !h land max_int

(* Wipes a warm state whose digest is not [d] and claims it for [d].
   True when something trained was wiped. *)
let guard w d =
  if w.w_digest = Some d then false
  else begin
    let fresh = warm () in
    let trained =
      w.w_solves > 0 || w.w_presolved <> None || w.w_basis <> None
      || w.w_pc <> None || w.w_root <> None
    in
    w.w_presolved <- fresh.w_presolved;
    w.w_orig_dims <- fresh.w_orig_dims;
    w.w_basis <- fresh.w_basis;
    w.w_basis_dims <- fresh.w_basis_dims;
    w.w_pc <- fresh.w_pc;
    w.w_root <- fresh.w_root;
    w.w_solves <- fresh.w_solves;
    w.w_digest <- Some d;
    trained
  end

(* ---- warm-state persistence ------------------------------------------- *)

(* Everything that is plain data travels: the digest, solve count,
   original dimensions, the root basis (with the reduced-problem
   dimensions that guard it) and the pseudocost table. The presolve
   component is a closure and the carried root holds cuts, so neither
   does: the first solve after a reload re-runs presolve and the root
   cut loop — deterministic for the problem the digest names — which
   re-derives the exact reduced dimensions the persisted basis is
   guarded by, so basis and pseudocosts still apply. *)
let warm_to_json w =
  let module J = Mm_obs.Json in
  let num n = J.Num (float_of_int n) in
  let int_arr a = J.List (Array.to_list (Array.map num a)) in
  let flt_arr a = J.List (Array.to_list (Array.map (fun v -> J.Num v) a)) in
  let basis =
    match w.w_basis with
    | None -> J.Null
    | Some b ->
        let bb, status = Simplex.basis_export b in
        let bc, br = w.w_basis_dims in
        J.Obj
          [
            ("b", int_arr bb);
            ("status", J.Str status);
            ("cols", num bc);
            ("rows", num br);
          ]
  in
  let pc =
    match w.w_pc with
    | None -> J.Null
    | Some pc ->
        let up_sum, up_cnt, dn_sum, dn_cnt =
          Branch_bound.pseudocosts_export pc
        in
        J.Obj
          [
            ("up_sum", flt_arr up_sum);
            ("up_cnt", int_arr up_cnt);
            ("dn_sum", flt_arr dn_sum);
            ("dn_cnt", int_arr dn_cnt);
          ]
  in
  let oc, orows = w.w_orig_dims in
  let digest =
    match w.w_digest with
    | None -> []
    | Some d -> [ ("digest", J.Str (Printf.sprintf "%016x" d)) ]
  in
  J.Obj
    (digest
    @ [
      ("solves", num w.w_solves);
      ("orig_cols", num oc);
      ("orig_rows", num orows);
      ("basis", basis);
      ("pseudocosts", pc);
    ])

let warm_of_json j =
  let module J = Mm_obs.Json in
  let ( let* ) = Result.bind in
  let int_field obj f =
    match Option.bind (J.member f obj) J.to_int with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "warm: bad %s field" f)
  in
  let int_array obj f =
    match J.member f obj with
    | Some (J.List xs) -> (
        let ints = List.filter_map J.to_int xs in
        match List.length ints = List.length xs with
        | true -> Ok (Array.of_list ints)
        | false -> Error (Printf.sprintf "warm: %s has non-integer entries" f))
    | _ -> Error (Printf.sprintf "warm: missing array %s" f)
  in
  let flt_array obj f =
    match J.member f obj with
    | Some (J.List xs) -> (
        let fs = List.filter_map J.to_float xs in
        match List.length fs = List.length xs with
        | true -> Ok (Array.of_list fs)
        | false -> Error (Printf.sprintf "warm: %s has non-number entries" f))
    | _ -> Error (Printf.sprintf "warm: missing array %s" f)
  in
  (* a state without a digest (written before the guard existed) is
     wiped by its first solve, like any other mismatch *)
  let* digest =
    match J.member "digest" j with
    | None -> Ok None
    | Some d -> (
        let hex h = int_of_string_opt ("0x" ^ h) in
        match Option.bind (J.to_str d) hex with
        | Some d when d >= 0 -> Ok (Some d)
        | _ -> Error "warm: bad digest field")
  in
  let* solves = int_field j "solves" in
  let* orig_cols = int_field j "orig_cols" in
  let* orig_rows = int_field j "orig_rows" in
  let* basis =
    match J.member "basis" j with
    | None | Some J.Null -> Ok None
    | Some obj ->
        let* b = int_array obj "b" in
        let* status =
          match Option.bind (J.member "status" obj) J.to_str with
          | Some s -> Ok s
          | None -> Error "warm: basis without status string"
        in
        let* cols = int_field obj "cols" in
        let* rows = int_field obj "rows" in
        (* the dimensions are the guard [solve] checks before restoring:
           they must describe the arrays they guard *)
        let* () =
          if Array.length b = rows && String.length status = cols + rows then
            Ok ()
          else Error "warm: basis arrays do not match its cols/rows"
        in
        let* snap =
          Result.map_error (fun e -> "warm: " ^ e)
            (Simplex.basis_import ~b ~status)
        in
        Ok (Some (snap, (cols, rows)))
  in
  let* pc =
    match J.member "pseudocosts" j with
    | None | Some J.Null -> Ok None
    | Some obj ->
        let* up_sum = flt_array obj "up_sum" in
        let* up_cnt = int_array obj "up_cnt" in
        let* dn_sum = flt_array obj "dn_sum" in
        let* dn_cnt = int_array obj "dn_cnt" in
        let* pc =
          Result.map_error (fun e -> "warm: " ^ e)
            (Branch_bound.pseudocosts_import ~up_sum ~up_cnt ~dn_sum ~dn_cnt)
        in
        Ok (Some pc)
  in
  Ok
    {
      w_digest = digest;
      w_presolved = None;
      w_orig_dims = (orig_cols, orig_rows);
      w_basis = Option.map fst basis;
      w_basis_dims =
        (match basis with Some (_, dims) -> dims | None -> (0, 0));
      w_pc = pc;
      w_root = None;
      w_solves = solves;
    }

let no_cut_stats =
  {
    Cut_pool.added = 0;
    dropped = 0;
    by_family = [];
    lp = Simplex.empty_stats;
    lp_time = 0.0;
    root_basis = None;
    last_basis = None;
  }

(* the tree-free result of a presolve verdict: an infeasible minimize
   is bounded by +inf, an unbounded one by -inf, flipped for a
   maximize objective *)
let verdict_result status p t0 =
  let bound =
    if status = Branch_bound.Infeasible then infinity else neg_infinity
  in
  {
    Branch_bound.status;
    solution = None;
    objective = None;
    best_bound = (if p.Problem.maximize_input then -.bound else bound);
    nodes = 0;
    time = Unix.gettimeofday () -. t0;
    lp_time = 0.0;
    max_node_lp_time = 0.0;
    lp_stats = Simplex.empty_stats;
    par = Branch_bound.serial_par_stats;
    incumbent_source = Branch_bound.No_incumbent;
    pseudocosts = Branch_bound.empty_pseudocosts;
    branches = 0;
    objective_branches = 0;
  }

let empty_stats before =
  {
    presolved_from = before;
    presolved_to = (0, 0);
    cuts_added = 0;
    node_cuts_added = 0;
    cuts_dropped = 0;
    cuts_by_family = [];
    heuristic_obj = None;
    heuristic_dives = 0;
    lp = Simplex.empty_stats;
    lp_time = 0.0;
    parallel = Branch_bound.serial_par_stats;
    warm_applied = [];
    warm_mismatches = 0;
  }

let solve ?(options = default_options) ?warm p =
  let bb = options.bb in
  let snk = Mm_obs.Trace.root bb.Branch_bound.trace in
  Mm_obs.Trace.span snk "solve" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun tl -> t0 +. tl) bb.Branch_bound.time_limit in
  let before = (p.Problem.ncols, p.Problem.nrows) in
  (* the content guard: state trained on another problem, or under
     other options, is wiped before any of it is used *)
  let warm_mismatches =
    match warm with
    | Some w when guard w (digest options p) ->
        Mm_obs.Trace.count snk "warm_mismatch" 1;
        1
    | _ -> 0
  in
  let warm_applied = ref [] in
  let apply_warm name =
    warm_applied := name :: !warm_applied;
    Mm_obs.Trace.count snk ("warm_" ^ name) 1
  in
  let reduced, recover =
    if options.presolve then begin
      match warm with
      | Some { w_presolved = Some (q, r); _ } ->
          (* the guard proved this state was trained on [p] *)
          apply_warm "presolve";
          (Some (`Problem q), r)
      | _ -> (
          match
            Mm_obs.Trace.span snk "presolve" (fun () -> Presolve.presolve p)
          with
          | Presolve.Infeasible -> (None, fun x -> x)
          | Presolve.Unbounded -> (Some `Unbounded, fun x -> x)
          | Presolve.Reduced (q, r) ->
              (match warm with
              | Some w ->
                  w.w_presolved <- Some (q, r);
                  w.w_orig_dims <- before
              | None -> ());
              (Some (`Problem q), r))
    end
    else (Some (`Problem p), fun x -> x)
  in
  let verdict status =
    {
      mip = verdict_result status p t0;
      stats = { (empty_stats before) with warm_mismatches };
    }
  in
  match reduced with
  | None -> verdict Branch_bound.Infeasible
  | Some `Unbounded -> verdict Branch_bound.Unbounded
  | Some (`Problem q) ->
      (* the root the last solve of this problem ended with, if any *)
      let carried = Option.bind warm (fun w -> w.w_root) in
      (* root cutting planes: the pool owns the whole loop (separation,
         dedup, scoring, aging) and afterwards serves node separation;
         a carried root re-registers its cuts instead *)
      let pool, q, cut_stats =
        if options.separators <> [] && Problem.num_integer q > 0 then begin
          let pool =
            Cut_pool.create ~max_age:options.cut_max_age
              ~separators:options.separators q
          in
          let q', cs =
            match carried with
            | Some c ->
                apply_warm "cuts";
                Mm_obs.Trace.span snk "cuts" (fun () ->
                    Cut_pool.resume ~snk pool c.r_cuts)
            | None ->
                let basis =
                  match warm with
                  | Some w
                    when w.w_basis <> None
                         && w.w_basis_dims = (q.Problem.ncols, q.Problem.nrows)
                    ->
                      apply_warm "basis";
                      w.w_basis
                  | _ -> None
                in
                let q', cs =
                  Mm_obs.Trace.span snk "cuts" (fun () ->
                      Cut_pool.root_loop ?basis ?deadline ~snk pool)
                in
                (match (warm, cs.Cut_pool.root_basis) with
                | Some w, Some b ->
                    w.w_basis <- Some b;
                    w.w_basis_dims <- (q.Problem.ncols, q.Problem.nrows)
                | _ -> ());
                (q', cs)
          in
          (Some pool, q', cs)
        end
        else (None, q, no_cut_stats)
      in
      if cut_stats.Cut_pool.added > 0 then
        Mm_obs.Trace.count snk "cuts_added" cut_stats.Cut_pool.added;
      (* the carried solution seeds the tree when it is still a feasible
         integer point of the extended problem; then the dive is skipped *)
      let resumed =
        match carried with
        | Some { r_solution = Some x; _ }
          when Problem.max_violation q x <= 1e-7
               && Problem.integer_violation q x <= 1e-6 ->
            apply_warm "incumbent";
            Some (x, Problem.internal_objective q x)
        | _ -> None
      in
      let carried_basis = Option.bind carried (fun c -> c.r_basis) in
      (* GUB diving on the strengthened root: an incumbent in O(segments)
         LPs before the tree starts *)
      let heur =
        if resumed = None && options.heuristics && Problem.num_integer q > 0
        then
          Mm_obs.Trace.span snk "heuristic" (fun () ->
              let basis =
                match carried_basis with
                | Some b -> Some b
                | None -> cut_stats.Cut_pool.last_basis
              in
              Heuristics.run ?basis ?deadline ~snk q)
        else Heuristics.none
      in
      let initial =
        match resumed with Some _ -> resumed | None -> heur.Heuristics.incumbent
      in
      let root_basis =
        match (resumed, heur.Heuristics.root_basis) with
        | None, Some b -> Some b
        | _ -> carried_basis
      in
      Log.debug (fun m ->
          m "solving %a (%d cuts)" Problem.pp_stats q cut_stats.Cut_pool.added);
      (* the time limit covers presolve + cuts + heuristics + branch and
         bound: hand the tree search only the true remainder (possibly
         zero, in which case it reports a clean limit status immediately) *)
      let bb_options =
        match bb.Branch_bound.time_limit with
        | None -> bb
        | Some tl ->
            let spent = Unix.gettimeofday () -. t0 in
            { bb with Branch_bound.time_limit = Some (Float.max 0.0 (tl -. spent)) }
      in
      let warm_pc =
        match warm with
        | Some { w_pc = Some pc; _ }
          when Branch_bound.pseudocosts_observations pc > 0 ->
            apply_warm "pseudocosts";
            Some pc
        | _ -> None
      in
      let r =
        Mm_obs.Trace.span snk "bb" (fun () ->
            Branch_bound.solve ~options:bb_options ?cuts:pool ?initial ?warm_pc
              ?root_basis q)
      in
      (match warm with
      | Some w ->
          w.w_pc <- Some r.Branch_bound.pseudocosts;
          (* only a finished solve's root is worth resuming: a limit may
             have cut its cut loop short *)
          w.w_root <-
            (if r.Branch_bound.status = Branch_bound.Optimal then
               Some
                 {
                   r_cuts =
                     (match pool with
                     | Some cp -> Cut_pool.root_cuts cp
                     | None -> []);
                   r_basis = root_basis;
                   r_solution = r.Branch_bound.solution;
                 }
             else None);
          w.w_solves <- w.w_solves + 1
      | None -> ());
      let node_cuts_added =
        match pool with Some cp -> Cut_pool.node_count cp | None -> 0
      in
      if node_cuts_added > 0 then
        Mm_obs.Trace.count snk "node_cuts_added" node_cuts_added;
      let solution = Option.map recover r.Branch_bound.solution in
      let objective =
        (* recompute on the original problem so that presolve's constant
           folding cannot skew reporting *)
        Option.map (fun x -> Problem.objective_value p x) solution
      in
      let heuristic_obj =
        (* user-sense value of the heuristic incumbent, recovered through
           presolve like the final solution *)
        Option.map
          (fun (x, _) -> Problem.objective_value p (recover x))
          heur.Heuristics.incumbent
      in
      let time = Unix.gettimeofday () -. t0 in
      {
        mip = { r with Branch_bound.solution; objective; time };
        stats =
          {
            presolved_from = before;
            presolved_to = (q.Problem.ncols, q.Problem.nrows);
            cuts_added = cut_stats.Cut_pool.added;
            node_cuts_added;
            cuts_dropped =
              (match pool with Some cp -> Cut_pool.dropped cp | None -> 0);
            cuts_by_family =
              (match pool with Some cp -> Cut_pool.by_family cp | None -> []);
            heuristic_obj;
            heuristic_dives = heur.Heuristics.dives;
            lp =
              Simplex.merge_stats cut_stats.Cut_pool.lp
                (Simplex.merge_stats heur.Heuristics.lp r.Branch_bound.lp_stats);
            lp_time =
              cut_stats.Cut_pool.lp_time +. heur.Heuristics.lp_time
              +. r.Branch_bound.lp_time;
            parallel = r.Branch_bound.par;
            warm_applied = List.rev !warm_applied;
            warm_mismatches;
          };
      }
