let src = Logs.Src.create "mm_lp.bb" ~doc:"branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

let status_to_string = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Unknown -> "unknown"

(* relative gap at which the incumbent counts as optimal *)
let gap_tol = 1e-9

(* a value farther than this from the nearest integer is fractional *)
let int_tol = 1e-6

type options = {
  time_limit : float option;
  node_limit : int option;
  parallelism : int;
  trace : Mm_obs.Trace.t;
  node_cut_depth : int;
  node_cut_freq : int;
}

let default_options =
  {
    time_limit = None;
    node_limit = None;
    parallelism = 1;
    trace = Mm_obs.Trace.disabled;
    node_cut_depth = 2;
    node_cut_freq = 4;
  }

let options ?time_limit ?node_limit
    ?(parallelism = default_options.parallelism)
    ?(trace = default_options.trace)
    ?(node_cut_depth = default_options.node_cut_depth)
    ?(node_cut_freq = default_options.node_cut_freq) () =
  {
    time_limit;
    node_limit;
    parallelism;
    trace;
    node_cut_depth;
    node_cut_freq;
  }

type par_stats = {
  domains_used : int;
  nodes_stolen : int;
  idle_seconds : float;
  domain_pivots : int array;
}

let serial_par_stats =
  {
    domains_used = 1;
    nodes_stolen = 0;
    idle_seconds = 0.0;
    domain_pivots = [| 0 |];
  }

type incumbent_source = No_incumbent | Heuristic | Rounding | Node_integral

let incumbent_source_to_string = function
  | No_incumbent -> "none"
  | Heuristic -> "heuristic"
  | Rounding -> "rounding"
  | Node_integral -> "node"

type pseudocost = {
  up_sum : float array;
  up_cnt : int array;
  dn_sum : float array;
  dn_cnt : int array;
}

(* The public snapshot type is the workspace record itself; arrays are
   copied at both the seed and export boundaries so a snapshot is
   immutable from the caller's point of view. *)
type pseudocosts = pseudocost

let empty_pseudocosts =
  { up_sum = [||]; up_cnt = [||]; dn_sum = [||]; dn_cnt = [||] }

let pseudocosts_observations pc =
  Array.fold_left ( + ) 0 pc.up_cnt + Array.fold_left ( + ) 0 pc.dn_cnt

let pseudocosts_export pc =
  ( Array.copy pc.up_sum,
    Array.copy pc.up_cnt,
    Array.copy pc.dn_sum,
    Array.copy pc.dn_cnt )

let pseudocosts_import ~up_sum ~up_cnt ~dn_sum ~dn_cnt =
  let n = Array.length up_sum in
  if Array.length up_cnt <> n || Array.length dn_sum <> n
     || Array.length dn_cnt <> n
  then Error "pseudocost arrays have mismatched lengths"
  else if Array.exists (fun c -> c < 0) up_cnt || Array.exists (fun c -> c < 0) dn_cnt
  then Error "pseudocost observation counts must be non-negative"
  else if
    Array.exists (fun v -> not (Float.is_finite v)) up_sum
    || Array.exists (fun v -> not (Float.is_finite v)) dn_sum
  then Error "pseudocost sums must be finite"
  else
    Ok
      {
        up_sum = Array.copy up_sum;
        up_cnt = Array.copy up_cnt;
        dn_sum = Array.copy dn_sum;
        dn_cnt = Array.copy dn_cnt;
      }

type result = {
  status : status;
  solution : float array option;
  objective : float option;
  best_bound : float;
  nodes : int;
  simplex_iterations : int;
  time : float;
  lp_time : float;
  max_node_lp_time : float;
  lp_stats : Simplex.stats;
  par : par_stats;
  incumbent_source : incumbent_source;
  pseudocosts : pseudocosts;
  branches : int;
  objective_branches : int;
}

let gap r =
  match r.objective with
  | None -> None
  | Some obj ->
      Some (Float.abs (obj -. r.best_bound) /. Float.max 1e-9 (Float.abs obj))

(* A node records the cumulative bound changes on its root-to-node path
   (child-first) plus the LP bound inherited from its parent. *)
type direction = Root | Up of int | Down of int

type node = {
  bound : float;
  depth : int;
  dir : direction;
  changes : (int * float * float) list;
  basis : Simplex.basis option;
      (* parent's optimal basis, shared by both children *)
  ncuts : int;
      (* pool-cut rows present in the LP the basis snapshot was taken
         on; a worker syncs to at least this count before restoring *)
}

let pc_avg sum cnt j fallback =
  if cnt.(j) > 0 then sum.(j) /. float_of_int cnt.(j) else fallback

(* The incumbent is published through a single atomic cell; a
   compare-and-set retry loop keeps concurrent improvements monotone. *)
type incumbent = { obj : float; x : float array option; src : incumbent_source }

type control = Run | Stop_gap | Stop_limit | Stop_unbounded

(* Everything mutable that a worker touches without synchronization
   lives in its private workspace: the simplex instance (and its LU
   factors), pseudocost statistics, the depth-first plunging child, and
   LP timing accumulators. Simplex/Lu keep all state inside the
   instance — see DESIGN.md — so one [Simplex.create] per domain makes
   node relaxations race-free. *)
type workspace = {
  id : int;
  mutable sx : Simplex.t;
  mutable prob : Problem.t;
      (* the LP this worker currently holds: root problem plus pool-cut
         rows [0 .. ncuts) — every worker appends the same global row
         sequence, so basis snapshots stay exchangeable *)
  mutable ncuts : int;
  mutable root_bounds : float array * float array;
      (* refreshed whenever cut rows extend the LP (slack bounds grow) *)
  pc : pseudocost;
  mutable current : node option;
  mutable processed : int; (* nodes this worker ran (cut-frequency gate) *)
  mutable lp_time : float;
  mutable max_node_lp_time : float;
  mutable retired : Simplex.stats;
      (* stats of simplex instances replaced by cut-row extensions *)
  mutable retired_pivots : int;
  mutable branches : int;
  mutable objective_branches : int;
      (* branches on a column with a nonzero objective coefficient *)
}

let solve ?(options = default_options) ?cuts ?initial ?warm_pc ?root_basis
    (p : Problem.t) =
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun tl -> t0 +. tl) options.time_limit in
  let n = p.Problem.ncols in
  let nworkers =
    if options.parallelism <= 0 then max 1 (Domain.recommended_domain_count ())
    else options.parallelism
  in
  let main_id = Domain.self () in
  let int_vars =
    List.filter
      (fun j ->
        match p.Problem.kind.(j) with
        | Problem.Integer | Problem.Binary -> true
        | Problem.Continuous -> false)
      (Mm_util.Ints.range n)
  in
  (* a heuristic incumbent (from [Heuristics.run] on the cut-extended
     root) seeds the atomic cell so the very first nodes already prune
     against it; it is re-validated against [p] out of caution *)
  let incumbent =
    Atomic.make
      (match initial with
      | Some (x, obj)
        when Problem.max_violation p x <= 1e-7
             && Problem.integer_violation p x <= 1e-6 ->
          { obj; x = Some (Array.copy x); src = Heuristic }
      | _ -> { obj = infinity; x = None; src = No_incumbent })
  in
  let nodes = Atomic.make 0 in
  let control = Atomic.make Run in
  (* one sink per worker, registered here on the main domain so slot
     numbers are deterministic (worker 0 gets the lowest slot) *)
  let sinks = Array.make nworkers Mm_obs.Trace.null in
  for i = 0 to nworkers - 1 do
    sinks.(i) <- Mm_obs.Trace.register options.trace
  done;
  let pool =
    Node_pool.create ~sinks ~workers:nworkers ~prio:(fun nd -> nd.bound) ()
  in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let out_of_budget () =
    (* [tl <= 0.0] guards the exhausted-budget edge (presolve + cuts ate
       the whole limit): two clock reads in the same microsecond would
       otherwise let the root node through a [Some 0.0] limit *)
    (match options.time_limit with
    | Some tl -> tl <= 0.0 || elapsed () > tl
    | None -> false)
    ||
    match options.node_limit with
    | Some nl -> Atomic.get nodes >= nl
    | None -> false
  in
  let signal reason = ignore (Atomic.compare_and_set control Run reason) in
  let fractional x j =
    let f = x.(j) -. Float.round x.(j) in
    Float.abs f > int_tol
  in
  let rec try_incumbent snk ~src x obj =
    let cur = Atomic.get incumbent in
    if obj < cur.obj -. 1e-9 then
      if
        Atomic.compare_and_set incumbent cur
          { obj; x = Some (Array.copy x); src }
      then begin
        Mm_obs.Trace.point snk "incumbent" obj;
        if Domain.self () = main_id then
          Log.debug (fun m ->
              m "new incumbent %g after %d nodes" obj (Atomic.get nodes))
      end
      else try_incumbent snk ~src x obj
  in
  let internal_obj x =
    let acc = ref p.Problem.obj_const in
    for j = 0 to n - 1 do
      acc := !acc +. (p.Problem.obj.(j) *. x.(j))
    done;
    !acc
  in
  let rounding_heuristic snk x =
    let r = Array.copy x in
    List.iter (fun j -> r.(j) <- Float.round r.(j)) int_vars;
    if Problem.max_violation p r <= 1e-7 then
      try_incumbent snk ~src:Rounding r (internal_obj r)
  in
  (* Objective columns first: zero-cost columns are scored only when
     no objective column is fractional. The mapping LPs have many
     optimal vertices, and with zero-cost columns in the running the
     tree size hinged on which one the LP returned. *)
  let obj_vars, zero_cost_vars =
    List.partition (fun j -> p.Problem.obj.(j) <> 0.0) int_vars
  in
  let most_promising pc x vars =
    (* pseudocost score with most-fractional fallback *)
    let best = ref (-1) and best_score = ref neg_infinity in
    List.iter
      (fun j ->
        if fractional x j then begin
          let f = x.(j) -. Float.floor x.(j) in
          let up = pc_avg pc.up_sum pc.up_cnt j 1.0 in
          let dn = pc_avg pc.dn_sum pc.dn_cnt j 1.0 in
          let frac_score = 0.5 -. Float.abs (f -. 0.5) in
          let score =
            (Float.max (up *. (1.0 -. f)) 1e-6 *. Float.max (dn *. f) 1e-6)
            +. (1e-3 *. frac_score)
          in
          if score > !best_score then begin
            best := j;
            best_score := score
          end
        end)
      vars;
    !best
  in
  let select_branch_var pc x =
    match most_promising pc x obj_vars with
    | -1 -> most_promising pc x zero_cost_vars
    | j -> j
  in
  (* Bring this worker's LP up to the pool's current activation count:
     extend the problem with the missing cut rows and rebuild the
     simplex instance around the same basis ([Simplex.create_from]
     leaves the new rows basic on their slacks). Root bounds are
     restored first so the refreshed [root_bounds] snapshot is
     node-independent — callers re-apply node changes afterwards. The
     replaced instance's statistics are banked in [retired]. *)
  let sync_cuts ws =
    match cuts with
    | None -> ()
    | Some cp ->
        let rows = Cut_pool.rows_from cp ws.ncuts in
        if rows <> [] then begin
          Simplex.restore_bounds ws.sx ws.root_bounds;
          let p' = Problem.extend_rows ws.prob rows in
          ws.retired <- Simplex.merge_stats ws.retired (Simplex.stats ws.sx);
          ws.retired_pivots <- ws.retired_pivots + Simplex.iterations ws.sx;
          Simplex.flush_trace ws.sx;
          let sx' = Simplex.create_from ws.sx p' in
          Simplex.set_trace sx' sinks.(ws.id);
          ws.sx <- sx';
          ws.prob <- p';
          ws.ncuts <- ws.ncuts + List.length rows;
          ws.root_bounds <- Simplex.save_bounds ws.sx
        end
  in
  let apply_changes ws nd =
    List.iter
      (fun (j, lb, ub) -> Simplex.set_bounds ws.sx j lb ub)
      (List.rev nd.changes)
  in
  let apply_node ws (nd : node) =
    (* a snapshot taken on an LP with more cut rows than we hold cannot
       be restored — catch up first (the converse is fine: missing rows
       come back basic on their slacks) *)
    if nd.ncuts > ws.ncuts then sync_cuts ws;
    Simplex.restore_bounds ws.sx ws.root_bounds;
    apply_changes ws nd;
    Option.iter (Simplex.restore_basis ws.sx) nd.basis
  in
  (* tightest change wins: prepending child changes and applying in root
     order means later (deeper) changes overwrite, which is what we want *)
  let process ws (nd : node) =
    let snk = sinks.(ws.id) in
    Mm_obs.Trace.point snk "node" nd.bound;
    Atomic.incr nodes;
    ws.processed <- ws.processed + 1;
    apply_node ws nd;
    let timed_solve ?(prefer_dual = false) () =
      let lp0 = Unix.gettimeofday () in
      let r = Simplex.solve ?deadline ~prefer_dual ws.sx in
      let node_lp = Unix.gettimeofday () -. lp0 in
      ws.lp_time <- ws.lp_time +. node_lp;
      if node_lp > ws.max_node_lp_time then ws.max_node_lp_time <- node_lp;
      r
    in
    (* warm start: re-solving with the primal simplex from the
       parent's restored basis needs only a short phase I (the basis
       is near-feasible after one bound change); the bounded dual is
       available via [prefer_dual] but grinds on these highly
       degenerate set-covering LPs, so it stays opt-in *)
    (match timed_solve () with
    | Simplex.Infeasible -> ()
    | Simplex.Unbounded ->
        if nd.depth = 0 then begin
          signal Stop_unbounded;
          Node_pool.halt pool
        end
    | Simplex.Iteration_limit ->
        signal Stop_limit;
        Node_pool.halt pool
    | Simplex.Optimal ->
        let obj = Simplex.objective ws.sx in
        (* update pseudocosts from the parent estimate *)
        (if Float.is_finite nd.bound then
           let delta = Float.max (obj -. nd.bound) 0.0 in
           match nd.dir with
           | Root -> ()
           | Up j ->
               ws.pc.up_sum.(j) <- ws.pc.up_sum.(j) +. delta;
               ws.pc.up_cnt.(j) <- ws.pc.up_cnt.(j) + 1
           | Down j ->
               ws.pc.dn_sum.(j) <- ws.pc.dn_sum.(j) +. delta;
               ws.pc.dn_cnt.(j) <- ws.pc.dn_cnt.(j) + 1);
        (* Root reduced-cost fixing: with an incumbent z* already in
           hand (the diving heuristic's seed) and the root LP bound z,
           a nonbasic integer variable whose reduced cost exceeds the
           gap z* - z cannot move off its bound in any solution
           strictly better than z*, so its bound is fixed for the
           whole tree — the fixings ride on every child's change list.
           Without an incumbent before the tree (e.g. under
           [Solver.cover_only]) this is a no-op. *)
        let root_fixings =
          if nd.depth > 0 then []
          else begin
            let inc = Atomic.get incumbent in
            if not (Float.is_finite inc.obj) then []
            else begin
              let gap = inc.obj -. obj +. 1e-7 in
              let d = Simplex.reduced_costs ws.sx in
              let fixed = ref [] in
              Array.iteri
                (fun j kind ->
                  match kind with
                  | Problem.Continuous -> ()
                  | Problem.Integer | Problem.Binary -> (
                      match Simplex.var_status ws.sx j with
                      | Simplex.At_lower when d.(j) > gap ->
                          let l, _ = Simplex.get_bounds ws.sx j in
                          Simplex.set_bounds ws.sx j l l;
                          fixed := (j, l, l) :: !fixed
                      | Simplex.At_upper when -.d.(j) > gap ->
                          let _, u = Simplex.get_bounds ws.sx j in
                          Simplex.set_bounds ws.sx j u u;
                          fixed := (j, u, u) :: !fixed
                      | _ -> ()))
                ws.prob.Problem.kind;
              if !fixed <> [] then
                Mm_obs.Trace.count snk "rc_fixed" (List.length !fixed);
              !fixed
            end
          end
        in
        (* the bound, integrality and branching decisions may run twice:
           once on the warm node relaxation and once more after a
           node-separation round tightens it (a single re-solve — cut
           rounds do not iterate inside a node) *)
        let rec evaluate obj ~may_cut =
          if obj >= (Atomic.get incumbent).obj -. 1e-9 then ()
            (* bound prune *)
          else begin
            let x = Simplex.primal ws.sx in
            let j = select_branch_var ws.pc x in
            if j < 0 then try_incumbent snk ~src:Node_integral x obj
            else begin
              rounding_heuristic snk x;
              let did_cut =
                may_cut
                &&
                match cuts with
                | Some cp
                  when options.node_cut_depth > 0
                       && nd.depth > 0
                       && nd.depth <= options.node_cut_depth
                       && ws.processed mod options.node_cut_freq = 0 ->
                    let before = ws.ncuts in
                    let after =
                      Mm_obs.Trace.span snk "separate" (fun () ->
                          Cut_pool.node_separate cp ws.prob x)
                    in
                    if after > before then begin
                      sync_cuts ws;
                      (* sync restored root bounds — put the node back *)
                      apply_changes ws nd;
                      true
                    end
                    else false
                | _ -> false
              in
              if did_cut then begin
                match timed_solve ~prefer_dual:true () with
                | Simplex.Optimal ->
                    evaluate (Simplex.objective ws.sx) ~may_cut:false
                | Simplex.Infeasible ->
                    (* pool cuts are globally valid, so an infeasible
                       tightened node LP is a legitimate prune *)
                    ()
                | Simplex.Unbounded ->
                    (* cannot appear: rows were added to a bounded LP *)
                    ()
                | Simplex.Iteration_limit ->
                    signal Stop_limit;
                    Node_pool.halt pool
              end
              else begin
                let lbj, ubj = Simplex.get_bounds ws.sx j in
                let f = x.(j) in
                let snap = Some (Simplex.basis_snapshot ws.sx) in
                let down =
                  {
                    bound = obj;
                    depth = nd.depth + 1;
                    dir = Down j;
                    changes =
                      (j, lbj, Float.floor f) :: (root_fixings @ nd.changes);
                    basis = snap;
                    ncuts = ws.ncuts;
                  }
                and up =
                  {
                    bound = obj;
                    depth = nd.depth + 1;
                    dir = Up j;
                    changes =
                      (j, Float.ceil f, ubj) :: (root_fixings @ nd.changes);
                    basis = snap;
                    ncuts = ws.ncuts;
                  }
                in
                ws.branches <- ws.branches + 1;
                if p.Problem.obj.(j) <> 0.0 then
                  ws.objective_branches <- ws.objective_branches + 1;
                let frac = f -. Float.floor f in
                let first, second =
                  if frac < 0.5 then (down, up) else (up, down)
                in
                ws.current <- Some first;
                Node_pool.push pool ~worker:ws.id second
              end
            end
          end
        in
        evaluate obj ~may_cut:true);
    match ws.current with
    | Some c -> Node_pool.working pool ~worker:ws.id c.bound
    | None -> Node_pool.set_idle pool ~worker:ws.id
  in
  let worker ws =
    let running = ref true in
    while !running do
      if Atomic.get control <> Run then begin
        (* on a limit stop, give unexpanded plunge children back to the
           pool so the final best bound accounts for them; on gap or
           unbounded stops they are discarded like the serial queue *)
        (match (Atomic.get control, ws.current) with
        | Stop_limit, Some nd -> Node_pool.push pool ~worker:ws.id nd
        | _ -> ());
        ws.current <- None;
        Node_pool.set_idle pool ~worker:ws.id;
        running := false
      end
      else if out_of_budget () then begin
        signal Stop_limit;
        Node_pool.halt pool
        (* next iteration pushes [current] back and exits *)
      end
      else begin
        (let nd =
           match ws.current with
           | Some nd ->
               ws.current <- None;
               Some nd
           | None -> Node_pool.take pool ~worker:ws.id
         in
         match nd with
         | None -> running := false
         | Some nd when nd.bound >= (Atomic.get incumbent).obj -. 1e-9 ->
             (* pruned at dequeue *)
             Node_pool.set_idle pool ~worker:ws.id
         | Some nd -> process ws nd);
        (* gap termination — run after every dequeue, pruned or not,
           exactly like the serial loop *)
        if !running && Atomic.get control = Run then begin
          match (Atomic.get incumbent).x with
          | Some _ ->
              let inc = (Atomic.get incumbent).obj in
              let bb = Float.min (Node_pool.min_bound pool) inc in
              let g = Float.abs (inc -. bb) /. Float.max 1e-9 (Float.abs inc) in
              if g <= gap_tol then begin
                signal Stop_gap;
                Node_pool.drain pool
              end
          | None -> ()
        end
      end
    done
  in
  let make_workspace id =
    let sx = Simplex.create p in
    Simplex.set_trace sx sinks.(id);
    {
      id;
      sx;
      prob = p;
      ncuts = 0;
      root_bounds = Simplex.save_bounds sx;
      pc =
        (* seed from a caller-supplied snapshot (a warm-start cache
           entry trained on a previous solve of this problem) when its
           dimensions match; private copies keep workers race-free *)
        (match warm_pc with
        | Some w when Array.length w.up_sum = n ->
            {
              up_sum = Array.copy w.up_sum;
              up_cnt = Array.copy w.up_cnt;
              dn_sum = Array.copy w.dn_sum;
              dn_cnt = Array.copy w.dn_cnt;
            }
        | _ ->
            {
              up_sum = Array.make n 0.0;
              up_cnt = Array.make n 0;
              dn_sum = Array.make n 0.0;
              dn_cnt = Array.make n 0;
            });
      current = None;
      processed = 0;
      lp_time = 0.0;
      max_node_lp_time = 0.0;
      retired = Simplex.empty_stats;
      retired_pivots = 0;
      branches = 0;
      objective_branches = 0;
    }
  in
  let workspaces = Array.init nworkers make_workspace in
  (* seed the root as worker 0's plunge node, marked in flight before
     any helper domain can observe an all-idle pool and quit early; it
     restores the caller's root optimum (the diving heuristic's first
     solve on [p]), so the root LP re-solves in zero pivots *)
  workspaces.(0).current <-
    Some
      {
        bound = neg_infinity;
        depth = 0;
        dir = Root;
        changes = [];
        basis = root_basis;
        ncuts = 0;
      };
  Node_pool.working pool ~worker:0 neg_infinity;
  let failures = Atomic.make [] in
  let rec record_failure e bt =
    let cur = Atomic.get failures in
    if not (Atomic.compare_and_set failures cur ((e, bt) :: cur)) then
      record_failure e bt
  in
  let run_worker ws =
    try worker ws
    with e ->
      record_failure e (Printexc.get_raw_backtrace ());
      signal Stop_limit;
      Node_pool.halt pool
  in
  let helpers =
    Array.init (nworkers - 1) (fun i ->
        Domain.spawn (fun () -> run_worker workspaces.(i + 1)))
  in
  run_worker workspaces.(0);
  Array.iter Domain.join helpers;
  (* all domains joined: flushing their sinks from here is race-free *)
  if Mm_obs.Trace.enabled options.trace then begin
    let idle = Node_pool.idle_per_worker pool in
    Array.iteri
      (fun i ws ->
        Simplex.flush_trace ws.sx;
        if ws.branches > 0 then begin
          Mm_obs.Trace.count sinks.(i) "branches" ws.branches;
          Mm_obs.Trace.count sinks.(i) "objective_branches"
            ws.objective_branches
        end;
        Mm_obs.Trace.point sinks.(i) "idle_seconds" idle.(i))
      workspaces
  end;
  (match Atomic.get failures with
  | (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  | [] -> ());
  let inc = Atomic.get incumbent in
  let final_bound =
    match Atomic.get control with
    | Stop_limit -> Float.min (Node_pool.min_bound pool) inc.obj
    | Stop_unbounded -> neg_infinity
    | Run | Stop_gap -> if inc.x = None then infinity else inc.obj
  in
  let to_user v =
    if Float.is_finite v then (if p.Problem.maximize_input then -.v else v)
    else if p.Problem.maximize_input then -.v
    else v
  in
  let status_final =
    match (Atomic.get control, inc.x) with
    | Stop_unbounded, _ -> Unbounded
    | Stop_limit, Some _ -> Feasible
    | Stop_limit, None -> Unknown
    | (Run | Stop_gap), Some _ -> Optimal
    | (Run | Stop_gap), None -> Infeasible
  in
  {
    status = status_final;
    solution = inc.x;
    objective = (match inc.x with Some _ -> Some (to_user inc.obj) | None -> None);
    best_bound = to_user final_bound;
    nodes = Atomic.get nodes;
    simplex_iterations =
      Array.fold_left
        (fun a ws -> a + Simplex.iterations ws.sx + ws.retired_pivots)
        0 workspaces;
    time = elapsed ();
    lp_time = Array.fold_left (fun a ws -> a +. ws.lp_time) 0.0 workspaces;
    max_node_lp_time =
      Array.fold_left (fun a ws -> Float.max a ws.max_node_lp_time) 0.0 workspaces;
    lp_stats =
      Array.fold_left
        (fun a ws ->
          Simplex.merge_stats a (Simplex.merge_stats ws.retired (Simplex.stats ws.sx)))
        Simplex.empty_stats workspaces;
    par =
      {
        domains_used = nworkers;
        nodes_stolen = Node_pool.nodes_stolen pool;
        idle_seconds = Node_pool.idle_seconds pool;
        domain_pivots =
          Array.map
            (fun ws -> Simplex.iterations ws.sx + ws.retired_pivots)
            workspaces;
      };
    incumbent_source = inc.src;
    branches = Array.fold_left (fun a ws -> a + ws.branches) 0 workspaces;
    objective_branches =
      Array.fold_left (fun a ws -> a + ws.objective_branches) 0 workspaces;
    pseudocosts =
      (* every worker trained private statistics; the merged sums are
         what a warm-start cache should carry into the next solve of
         the same problem. Each workspace started from a copy of the
         seed, so the seed is subtracted [nworkers - 1] times to count
         it exactly once. *)
      (let merged =
         {
           up_sum = Array.make n 0.0;
           up_cnt = Array.make n 0;
           dn_sum = Array.make n 0.0;
           dn_cnt = Array.make n 0;
         }
       in
       Array.iter
         (fun ws ->
           for j = 0 to n - 1 do
             merged.up_sum.(j) <- merged.up_sum.(j) +. ws.pc.up_sum.(j);
             merged.up_cnt.(j) <- merged.up_cnt.(j) + ws.pc.up_cnt.(j);
             merged.dn_sum.(j) <- merged.dn_sum.(j) +. ws.pc.dn_sum.(j);
             merged.dn_cnt.(j) <- merged.dn_cnt.(j) + ws.pc.dn_cnt.(j)
           done)
         workspaces;
       (match warm_pc with
       | Some w when Array.length w.up_sum = n && nworkers > 1 ->
           let k = float_of_int (nworkers - 1) in
           for j = 0 to n - 1 do
             merged.up_sum.(j) <- merged.up_sum.(j) -. (k *. w.up_sum.(j));
             merged.up_cnt.(j) <- merged.up_cnt.(j) - ((nworkers - 1) * w.up_cnt.(j));
             merged.dn_sum.(j) <- merged.dn_sum.(j) -. (k *. w.dn_sum.(j));
             merged.dn_cnt.(j) <- merged.dn_cnt.(j) - ((nworkers - 1) * w.dn_cnt.(j))
           done
       | _ -> ());
       merged);
  }
