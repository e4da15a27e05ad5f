(* Bounded-variable revised simplex over a sparse LU factorization.

   Variables 0..n-1 are the structural columns of the problem; variables
   n..n+m-1 are row slacks with column -e_r, so that every constraint
   reads  A x - s = 0  with  row_lb <= s <= row_ub.

   [loc.(v)] encodes where variable [v] lives:
     k >= 0  basic, at basis position k;
     -1      nonbasic at lower bound;
     -2      nonbasic at upper bound;
     -3      nonbasic free (held at value 0).

   The basis is held as a sparse LU factorization (Markowitz pivoting,
   see {!Lu}) with product-form eta updates absorbed between
   refactorizations; ftran/btran replace the former dense basis-inverse
   row operations. Phase I is the composite (artificial-free) method:
   basic variables outside their bounds get cost +/-1 and the same
   pivoting machinery drives the total infeasibility to zero. Infeasible
   basics are blocked at their violated bound during the ratio test, so
   infeasibility is non-increasing and no new infeasibilities are
   created.

   Reduced costs are maintained, not re-priced. Every basis change
   computes the pivot row alpha_r = rho^T [A | -I], rho = B^-T e_ip,
   once: one btran of a unit vector, then a row-wise sweep over the
   nonzero rows of rho only. In primal phase 2 and the dual phase the
   array [d] is updated from that row (d_v -= theta_d alpha_r[v]); the
   same row feeds the primal Devex weights, the dual ratio test and
   {!tableau_row}, so no phase-2 or dual pivot solves for the duals or
   prices a column by a dot product. [d] is recomputed exactly from
   fresh duals at every refactorization, on entry to phase 2 from
   phase 1, on entry to the dual phase, and once before optimality is
   declared; if that check still finds an eligible column, pivoting
   goes on. Phase 1 prices on demand
   (c_j - y^T a_j against one btran per pivot), because its costs
   change with the infeasible set.

   Pricing is Devex reference-framework pricing over a rotating
   candidate-list window: each iteration scans only the window of
   nonbasic columns, scoring d^2/w with per-column reference weights
   updated from the pivot row on every basis change (scores within
   [tols.price_tie] tie and go to the lowest index), and runs a full
   scan only when the window prices out (which is also the only place
   optimality is declared). The dual method prices leaving rows with
   dual Devex row weights, checked against the exact row norm of rho
   and reset on drift. Long degenerate streaks fall back to Bland's
   first-eligible full scan. The ratio test is a Harris-style
   two-pass: pass 1 finds the largest step with every blocking bound
   relaxed by [tols.harris], pass 2 picks the largest-magnitude pivot
   among blockers within that step; bounded columns whose opposite
   bound is within the relaxed step flip between bounds without a
   basis change. *)

type result = Optimal | Infeasible | Unbounded | Iteration_limit

(* Every numerical tolerance of the solver in one record, shared by the
   primal ratio test, the dual ratio test and the Harris passes (the
   dual test used to carry its own hard-coded 1e-12 tie window). *)
type tolerances = {
  feas : float;  (* primal feasibility on variable/row bounds *)
  opt : float;  (* dual feasibility: reduced-cost pricing threshold *)
  pivot : float;  (* smallest acceptable pivot magnitude *)
  zero : float;  (* drop threshold for update arithmetic *)
  ratio_tie : float;  (* tie window shared by primal and dual ratio tests *)
  harris : float;  (* Harris pass-1 bound relaxation *)
  price_tie : float;  (* relative window within which Devex scores tie *)
  dual_start : float;  (* dual infeasibility a basis may carry into the dual *)
  degenerate : float;  (* step length at or below which a pivot is degenerate *)
}

let tols =
  {
    feas = 1e-7;
    opt = 1e-7;
    pivot = 1e-8;
    zero = 1e-11;
    ratio_tie = 1e-12;
    harris = 1e-8;
    price_tie = 1e-9;
    dual_start = 1e-6;
    degenerate = 1e-10;
  }

let feas_tol = tols.feas
let opt_tol = tols.opt
let pivot_tol = tols.pivot
let zero_tol = tols.zero
let tie_tol = tols.ratio_tie
let refactor_every = 120

(* Devex reference weights are reset to the all-ones framework once the
   selected weight drifts past this cap (primal), or once the exact row
   norm exceeds the approximate weight by this factor (dual). *)
let devex_weight_cap = 1e7
let devex_drift_factor = 100.0

(* Per-pivot phases timed while a trace is active: index into
   [phase_ns]/[phase_hist], and the trace histogram name. *)
let ph_price = 0
let ph_duals = 1
let ph_ftran = 2
let ph_btran = 3
let ph_lu_update = 4
let ph_refactor = 5

let phase_names =
  [| "price"; "duals"; "ftran"; "btran"; "lu_update"; "refactor" |]

type stats = {
  pivots : int;
  phase1_pivots : int;
  flips : int;
  refactorizations : int;
  devex_resets : int;
  max_eta : int;
  lu_fill : int;
  basis_nnz : int;
  sparse_solves : int;
  dense_fallbacks : int;
  cols_priced : int;
  price_s : float;
  duals_s : float;
  ftran_s : float;
  btran_s : float;
  lu_update_s : float;
  refactor_s : float;
}

let empty_stats =
  {
    pivots = 0;
    phase1_pivots = 0;
    flips = 0;
    refactorizations = 0;
    devex_resets = 0;
    max_eta = 0;
    lu_fill = 0;
    basis_nnz = 0;
    sparse_solves = 0;
    dense_fallbacks = 0;
    cols_priced = 0;
    price_s = 0.0;
    duals_s = 0.0;
    ftran_s = 0.0;
    btran_s = 0.0;
    lu_update_s = 0.0;
    refactor_s = 0.0;
  }

let merge_stats a b =
  {
    pivots = a.pivots + b.pivots;
    phase1_pivots = a.phase1_pivots + b.phase1_pivots;
    flips = a.flips + b.flips;
    refactorizations = a.refactorizations + b.refactorizations;
    devex_resets = a.devex_resets + b.devex_resets;
    max_eta = max a.max_eta b.max_eta;
    lu_fill = max a.lu_fill b.lu_fill;
    basis_nnz = max a.basis_nnz b.basis_nnz;
    sparse_solves = a.sparse_solves + b.sparse_solves;
    dense_fallbacks = a.dense_fallbacks + b.dense_fallbacks;
    cols_priced = a.cols_priced + b.cols_priced;
    price_s = a.price_s +. b.price_s;
    duals_s = a.duals_s +. b.duals_s;
    ftran_s = a.ftran_s +. b.ftran_s;
    btran_s = a.btran_s +. b.btran_s;
    lu_update_s = a.lu_update_s +. b.lu_update_s;
    refactor_s = a.refactor_s +. b.refactor_s;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "%d pivots (%d phase-1, %d flips), %d refactorizations, %d devex resets, \
     eta<=%d, fill %d, basis nnz %d, %d LU solves, %d columns priced"
    s.pivots s.phase1_pivots s.flips s.refactorizations s.devex_resets
    s.max_eta s.lu_fill s.basis_nnz s.dense_fallbacks s.cols_priced;
  if s.refactor_s > 0.0 then
    Format.fprintf fmt
      " (price %.3fs, duals %.3fs, ftran %.3fs, btran %.3fs, lu update \
       %.3fs, refactor %.3fs)"
      s.price_s s.duals_s s.ftran_s s.btran_s s.lu_update_s s.refactor_s

type t = {
  p : Problem.t;
  n : int;
  m : int;
  nt : int;
  cost : float array;
  lb : float array;
  ub : float array;
  slack_cols : (int array * float array) array; (* column -e_r of slack r *)
  basis : int array;
  loc : int array;
  mutable lu : Lu.t;
  xval : float array;
  mutable niter : int;
  mutable phase1_iters : int;
  mutable nflip : int;
  mutable nrefactor : int;
  mutable ndevex_reset : int;
  mutable max_eta : int;
  mutable max_fill : int;
  mutable max_bnnz : int;
  mutable since_refactor : int;
  mutable degenerate_streak : int;
  mutable ncols_priced : int;
  mutable tr : Mm_obs.Trace.sink;
  mutable flushed_flips : int;
  mutable flushed_resets : int;
  mutable flushed_priced : int;
  pivot_hist : Mm_obs.Trace.hist;
  ftran_hist : Mm_obs.Trace.hist; (* ftran result density, permille *)
  btran_hist : Mm_obs.Trace.hist; (* btran result density, permille *)
  phase_ns : int array; (* per-phase nanoseconds, see [ph_price].. *)
  phase_hist : Mm_obs.Trace.hist array; (* per-phase latencies, same index *)
  mutable nsolves : int; (* LU ftran/btran solves *)
  y : float array; (* duals, row-indexed *)
  alpha : float array; (* entering column B^-1 A_q, pos-indexed *)
  beta : float array; (* compute_basics scratch, pos-indexed *)
  rhs : float array; (* row-indexed ftran input, all-zero between solves *)
  bwork : float array; (* compute_basics accumulation scratch *)
  cbw : float array; (* pos-indexed scratch for btran inputs *)
  rho : float array; (* row [ip] of the basis inverse *)
  prow : float array; (* pivot row rho^T [A | -I], per variable *)
  pidx : int array; (* variables with an entry in [prow] *)
  mutable pnnz : int;
  pmark : Bytes.t; (* '\001' for variables listed in [pidx] *)
  d : float array; (* maintained phase-2 reduced costs, per variable *)
  mutable d_live : bool; (* pricing reads [d] (phase 2, dual phase) *)
  mutable d_stale : bool; (* [d] was updated since its last exact refresh *)
  pcost : float array;
  dw : float array; (* primal Devex reference weights, per variable *)
  drw : float array; (* dual Devex reference weights, per row *)
  cand : int array; (* candidate-list pricing window (variable indices) *)
  mutable ncand : int;
  mutable scan_from : int; (* rotating cursor for window rebuilds *)
  wsize : int; (* window capacity *)
}

(* phase timers: [tick] reads the clock only under an active trace, so
   an untraced solve pays one pattern match per timed section *)
let tick t = if Mm_obs.Trace.active t.tr then Mm_obs.Trace.now_ns () else 0L

let tock t ph h0 =
  if Mm_obs.Trace.active t.tr then begin
    let dt = Int64.sub (Mm_obs.Trace.now_ns ()) h0 in
    t.phase_ns.(ph) <- t.phase_ns.(ph) + Int64.to_int dt;
    Mm_obs.Trace.hist_add t.phase_hist.(ph) dt
  end

(* --- column access ---------------------------------------------------- *)

(* The kernels from here to the accessors index without bounds checks
   ([let open Unchecked in]). Their indices are safe by construction:
   [create] rejects a problem whose column or row indices leave
   0..m-1 / 0..n-1 (Problem.validate); every per-variable array has
   length nt and every per-row or per-position array length m; [basis]
   holds distinct variables below nt and [loc] positions below m,
   which every writer keeps: the slack basis, [create_from], the pivots
   themselves and [restore_basis], whose imported snapshots
   {!basis_import} validated. The solve-result arrays are filled by
   {!Lu}, which checks their lengths per call. Each kernel visits a
   solve result's nonzeros in ascending index order, which fixes the
   tie-breaking of the ratio test, the step, the weight updates and the
   pivot row. *)

(* y . A_j, summed in ascending row order from 0.0 (the slack column
   -e_r gives 0.0 - y_r) *)
let[@inline] dot_col t y j =
  let open Unchecked in
  if j < t.n then begin
    let idx, a = t.p.Problem.cols.(j) in
    let acc = ref 0.0 in
    for k = 0 to Array.length idx - 1 do
      acc := !acc +. (y.(idx.(k)) *. a.(k))
    done;
    !acc
  end
  else 0.0 -. y.(j - t.n)

(* Records the nonzero share of a solve result, in permille, into a
   density histogram; the count is only taken under an active trace. *)
let record_density t h v =
  if Mm_obs.Trace.active t.tr then begin
    let nz = ref 0 in
    for i = 0 to Array.length v - 1 do
      if v.(i) <> 0.0 then incr nz
    done;
    Mm_obs.Trace.hist_add h (Int64.of_int (1000 * !nz / max 1 t.m))
  end

(* alpha := B^-1 A_j; the slack column -e_r loads -1.0 into row r *)
let ftran t j =
  let open Unchecked in
  let h0 = tick t in
  let rhs = t.rhs in
  if j < t.n then begin
    let idx, a = t.p.Problem.cols.(j) in
    for k = 0 to Array.length idx - 1 do
      rhs.(idx.(k)) <- a.(k)
    done;
    Lu.ftran t.lu ~src:rhs ~dst:t.alpha;
    for k = 0 to Array.length idx - 1 do
      rhs.(idx.(k)) <- 0.0
    done
  end
  else begin
    let r = j - t.n in
    rhs.(r) <- -1.0;
    Lu.ftran t.lu ~src:rhs ~dst:t.alpha;
    rhs.(r) <- 0.0
  end;
  t.nsolves <- t.nsolves + 1;
  record_density t t.ftran_hist t.alpha;
  tock t ph_ftran h0

(* --- duals and the pivot row ------------------------------------------- *)

let compute_duals t costs =
  let open Unchecked in
  let h0 = tick t in
  for k = 0 to t.m - 1 do
    let c = costs.(t.basis.(k)) in
    (* a -0.0 cost enters the solve as +0.0 *)
    t.cbw.(k) <- (if c <> 0.0 then c else 0.0)
  done;
  Lu.btran t.lu ~src:t.cbw ~dst:t.y;
  t.nsolves <- t.nsolves + 1;
  record_density t t.btran_hist t.y;
  tock t ph_duals h0

(* The pivot row alpha_r = rho^T [A | -I] of basis position [ip] into
   [prow], its support listed in [pidx]: one btran of e_ip (into [rho]),
   then a sweep over rho's nonzero rows. Rows come in ascending order
   and exact zeros of rho are skipped, so every entry is summed in the
   order [dot_col rho v] would sum it, at a cost proportional to the
   rows rho actually reaches.
   Called before the basis change, while [t.lu] still factors the
   outgoing basis. *)
let pivot_row t ip =
  let open Unchecked in
  let h0 = tick t in
  let prow = t.prow and pmark = t.pmark and pidx = t.pidx in
  for s = 0 to t.pnnz - 1 do
    let v = pidx.(s) in
    prow.(v) <- 0.0;
    Bytes.unsafe_set pmark v '\000'
  done;
  let np = ref 0 in
  Lu.btran_unit t.lu ~pos:ip ~dst:t.rho;
  t.nsolves <- t.nsolves + 1;
  record_density t t.btran_hist t.rho;
  let rho = t.rho and rows = t.p.Problem.rows in
  for r = 0 to t.m - 1 do
    let rr = rho.(r) in
    if rr <> 0.0 then begin
      let idx, a = rows.(r) in
      for k = 0 to Array.length idx - 1 do
        let j = idx.(k) in
        if Bytes.unsafe_get pmark j = '\000' then begin
          Bytes.unsafe_set pmark j '\001';
          pidx.(!np) <- j;
          incr np
        end;
        prow.(j) <- prow.(j) +. (rr *. a.(k))
      done;
      let s = t.n + r in
      Bytes.unsafe_set pmark s '\001';
      pidx.(!np) <- s;
      incr np;
      prow.(s) <- -.rr
    end
  done;
  t.pnnz <- !np;
  tock t ph_btran h0

(* Exact phase-2 reduced costs from fresh duals: the refresh point of
   the maintained [d]. *)
let refresh_d t =
  let open Unchecked in
  compute_duals t t.cost;
  let h0 = tick t in
  for v = 0 to t.nt - 1 do
    if t.loc.(v) < 0 then begin
      t.d.(v) <- t.cost.(v) -. dot_col t t.y v;
      t.ncols_priced <- t.ncols_priced + 1
    end
    else t.d.(v) <- 0.0
  done;
  t.d_stale <- false;
  tock t ph_price h0

(* Update [d] for [q] entering at [ip] with pivot element [piv] from
   the pivot row of the outgoing basis, consuming the row (its entries
   are zeroed on the way, so the next {!pivot_row} starts clean):
   d_v -= theta alpha_r[v] with theta = d_q / piv over the row's
   support, basic variables included since their [d] is never read;
   then q's reduced cost is 0 and the leaver's -theta. *)
let update_d t q ip piv =
  let open Unchecked in
  let theta = t.d.(q) /. piv in
  let d = t.d and prow = t.prow in
  for s = 0 to t.pnnz - 1 do
    let v = t.pidx.(s) in
    d.(v) <- d.(v) -. (theta *. prow.(v));
    prow.(v) <- 0.0;
    Bytes.unsafe_set t.pmark v '\000'
  done;
  t.pnnz <- 0;
  d.(q) <- 0.0;
  d.(t.basis.(ip)) <- -.theta;
  t.d_stale <- true

(* --- creation and (re)factorization ----------------------------------- *)

let[@inline] nonbasic_value t v =
  let open Unchecked in
  match t.loc.(v) with
  | -1 -> t.lb.(v)
  | -2 -> t.ub.(v)
  | -3 -> 0.0
  | _ -> invalid_arg "nonbasic_value: basic"

(* b := -N x_N (the slack column -e_r subtracts -1.0 * x), then
   x_B := B^-1 b *)
let compute_basics t =
  let open Unchecked in
  let b = t.bwork and cols = t.p.Problem.cols in
  Array.fill b 0 t.m 0.0;
  for v = 0 to t.nt - 1 do
    if t.loc.(v) < 0 then begin
      let x = nonbasic_value t v in
      t.xval.(v) <- x;
      if x <> 0.0 then
        if v < t.n then begin
          let idx, a = cols.(v) in
          for k = 0 to Array.length idx - 1 do
            let r = idx.(k) in
            b.(r) <- b.(r) -. (a.(k) *. x)
          done
        end
        else begin
          let r = v - t.n in
          b.(r) <- b.(r) -. (-1.0 *. x)
        end
    end
  done;
  Lu.ftran t.lu ~src:b ~dst:t.beta;
  t.nsolves <- t.nsolves + 1;
  for k = 0 to t.m - 1 do
    t.xval.(t.basis.(k)) <- t.beta.(k)
  done

let reset_to_slack_basis t =
  for v = 0 to t.nt - 1 do
    t.loc.(v) <-
      (if t.lb.(v) > neg_infinity then -1
       else if t.ub.(v) < infinity then -2
       else -3)
  done;
  for r = 0 to t.m - 1 do
    t.basis.(r) <- t.n + r;
    t.loc.(t.n + r) <- r
  done

let factor_current t =
  Lu.factor ~m:t.m (fun k ->
      let j = t.basis.(k) in
      if j < t.n then t.p.Problem.cols.(j) else t.slack_cols.(j - t.n))

let refactor t =
  let h0 = tick t in
  (try t.lu <- factor_current t
   with Lu.Singular ->
     reset_to_slack_basis t;
     t.lu <- factor_current t);
  t.nrefactor <- t.nrefactor + 1;
  if Lu.fill_nnz t.lu > t.max_fill then t.max_fill <- Lu.fill_nnz t.lu;
  if Lu.basis_nnz t.lu > t.max_bnnz then t.max_bnnz <- Lu.basis_nnz t.lu;
  compute_basics t;
  t.since_refactor <- 0;
  tock t ph_refactor h0;
  if t.d_live then refresh_d t

let create p =
  (match Problem.validate p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Simplex.create: " ^ e));
  let n = p.Problem.ncols and m = p.Problem.nrows in
  let nt = n + m in
  let lb = Array.make nt 0.0 and ub = Array.make nt 0.0 in
  Array.blit p.Problem.col_lb 0 lb 0 n;
  Array.blit p.Problem.col_ub 0 ub 0 n;
  Array.blit p.Problem.row_lb 0 lb n m;
  Array.blit p.Problem.row_ub 0 ub n m;
  let cost = Array.make nt 0.0 in
  Array.blit p.Problem.obj 0 cost 0 n;
  let minus_one = [| -1.0 |] in
  let slack_cols = Array.init m (fun r -> ([| r |], minus_one)) in
  let wsize =
    max 8 (min nt (8 + (4 * int_of_float (Float.sqrt (float_of_int nt)))))
  in
  let t =
    {
      p;
      n;
      m;
      nt;
      cost;
      lb;
      ub;
      slack_cols;
      basis = Array.make m 0;
      loc = Array.make nt (-1);
      (* slack basis: column at position k is -e_k *)
      lu = Lu.factor ~m (fun k -> slack_cols.(k));
      xval = Array.make nt 0.0;
      niter = 0;
      phase1_iters = 0;
      nflip = 0;
      nrefactor = 0;
      ndevex_reset = 0;
      max_eta = 0;
      max_fill = 0;
      max_bnnz = 0;
      since_refactor = 0;
      degenerate_streak = 0;
      ncols_priced = 0;
      tr = Mm_obs.Trace.null;
      flushed_flips = 0;
      flushed_resets = 0;
      flushed_priced = 0;
      pivot_hist = Mm_obs.Trace.hist_create ();
      ftran_hist = Mm_obs.Trace.hist_create ();
      btran_hist = Mm_obs.Trace.hist_create ();
      phase_ns = Array.make (Array.length phase_names) 0;
      phase_hist =
        Array.map (fun _ -> Mm_obs.Trace.hist_create ()) phase_names;
      nsolves = 0;
      y = Array.make m 0.0;
      alpha = Array.make m 0.0;
      beta = Array.make m 0.0;
      rhs = Array.make m 0.0;
      bwork = Array.make m 0.0;
      cbw = Array.make m 0.0;
      rho = Array.make m 0.0;
      prow = Array.make nt 0.0;
      pidx = Array.make nt 0;
      pnnz = 0;
      pmark = Bytes.make nt '\000';
      d = Array.make nt 0.0;
      d_live = false;
      d_stale = false;
      pcost = Array.make nt 0.0;
      dw = Array.make nt 1.0;
      drw = Array.make m 1.0;
      cand = Array.make (max 1 nt) 0;
      ncand = 0;
      scan_from = 0;
      wsize;
    }
  in
  reset_to_slack_basis t;
  compute_basics t;
  t

(* Warm constructor for the root cut loop: [p'] must be [prev]'s problem
   with extra rows appended (columns, bounds and existing rows
   unchanged). The previous basis carries over — structural and old
   slack indices are identical in both problems — and the appended cut
   rows enter basic on their slacks, so after an optimal [prev] the new
   instance is dual feasible and a [prefer_dual] re-solve restores
   primal feasibility in a few pivots. *)
let create_from prev p' =
  if p'.Problem.ncols <> prev.n || p'.Problem.nrows < prev.m then
    invalid_arg "Simplex.create_from: not a row extension";
  let t = create p' in
  (* carry the previous instance's *current* bounds for the shared
     variables (structural and old slacks occupy the same indices). At
     the root cut loop these equal [p']'s bounds; a branch-and-bound
     worker extending its LP with pooled cut rows mid-tree keeps its
     node bound tightenings this way. *)
  Array.blit prev.lb 0 t.lb 0 prev.nt;
  Array.blit prev.ub 0 t.ub 0 prev.nt;
  for v = 0 to prev.n - 1 do
    t.loc.(v) <- prev.loc.(v)
  done;
  for r = 0 to prev.m - 1 do
    (* slack indices coincide because ncols is unchanged *)
    t.loc.(t.n + r) <- prev.loc.(prev.n + r);
    t.basis.(r) <- prev.basis.(r)
  done;
  (* appended rows keep the slack basis set up by [create] *)
  Array.blit prev.dw 0 t.dw 0 prev.nt;
  Array.blit prev.drw 0 t.drw 0 prev.m;
  t.tr <- prev.tr;
  refactor t;
  t

(* --- pricing ----------------------------------------------------------- *)

(* Reduced cost of nonbasic [v]: the maintained [d] in phase 2 and the
   dual phase; in phase 1 priced on demand against the phase-1 costs,
   assuming t.y holds their duals. *)
let[@inline] reduced_cost t v =
  let open Unchecked in
  if t.d_live then t.d.(v)
  else begin
    t.ncols_priced <- t.ncols_priced + 1;
    t.pcost.(v) -. dot_col t t.y v
  end

(* Entering direction of nonbasic [v] at reduced cost [d]: 1 when it
   enters increasing from its lower bound, -1 when it enters decreasing
   from its upper bound, 0 when it does not price out. *)
let[@inline] direction t v d =
  let open Unchecked in
  match t.loc.(v) with
  | -1 -> if d < -.opt_tol && t.ub.(v) > t.lb.(v) then 1 else 0
  | -2 -> if d > opt_tol && t.ub.(v) > t.lb.(v) then -1 else 0
  | _ -> if d < -.opt_tol then 1 else if d > opt_tol then -1 else 0

(* Bland's first-eligible full scan: the anti-cycling fallback for long
   degenerate streaks. *)
let price_bland t =
  let rec scan v =
    if v >= t.nt then None
    else
      let sigma =
        if t.loc.(v) < 0 then direction t v (reduced_cost t v) else 0
      in
      if sigma <> 0 then Some (v, float_of_int sigma) else scan (v + 1)
  in
  scan 0

(* Whether score [sc] of [v] replaces the best so far: higher by more
   than the tie window, or within it at a lower index. *)
let[@inline] devex_beats v sc ~best ~best_score =
  let tie = tols.price_tie *. best_score in
  sc > best_score +. tie || (v < best && sc >= best_score -. tie)

(* Devex pricing over the candidate window: re-price only the window,
   keep the members that still price out, and pick the best d^2/w
   score. Scores within [tols.price_tie] of the best tie and go to the
   lowest variable index, as ties do in Bland's scan, branching and
   diving: interchangeable columns (identical bank instances) share one
   exact reduced cost, and neither the last bits a maintained [d] gives
   each of them nor the window's rotating cursor may pick among them.
   When the window prices out, rebuild it with a full rotating scan —
   the only place optimality may be declared, so partial pricing can
   never terminate early on a stale window. *)
let price_devex t =
  let open Unchecked in
  let loc = t.loc and dw = t.dw and cand = t.cand in
  let best = ref (-1) and best_score = ref 0.0 and best_sigma = ref 0 in
  (* window pass: score each member that is nonbasic and prices out,
     and keep only those *)
  let keep = ref 0 in
  for s = 0 to t.ncand - 1 do
    let v = cand.(s) in
    if loc.(v) < 0 then begin
      let d = reduced_cost t v in
      let sigma = direction t v d in
      if sigma <> 0 then begin
        let sc = d *. d /. dw.(v) in
        if devex_beats v sc ~best:!best ~best_score:!best_score then begin
          best := v;
          best_score := sc;
          best_sigma := sigma
        end;
        cand.(!keep) <- v;
        incr keep
      end
    end
  done;
  t.ncand <- !keep;
  if !best < 0 then begin
    (* rebuild pass: the same scoring over a full rotating scan, until
       the window is full again *)
    t.ncand <- 0;
    let start = t.scan_from in
    let scanned = ref 0 in
    while !scanned < t.nt && t.ncand < t.wsize do
      let v = start + !scanned in
      let v = if v >= t.nt then v - t.nt else v in
      incr scanned;
      if loc.(v) < 0 then begin
        let d = reduced_cost t v in
        let sigma = direction t v d in
        if sigma <> 0 then begin
          let sc = d *. d /. dw.(v) in
          if devex_beats v sc ~best:!best ~best_score:!best_score then begin
            best := v;
            best_score := sc;
            best_sigma := sigma
          end;
          cand.(t.ncand) <- v;
          t.ncand <- t.ncand + 1
        end
      end
    done;
    t.scan_from <-
      (let c = start + !scanned in
       if c >= t.nt then c - t.nt else c)
  end;
  if !best < 0 then None else Some (!best, float_of_int !best_sigma)

let price t ~bland =
  let h0 = tick t in
  let r = if bland then price_bland t else price_devex t in
  tock t ph_price h0;
  r

(* Primal Devex weight update for the pivot that makes [q] enter at
   basis position [ip], reading the pivot row already built by
   {!pivot_row}. Weights of the candidate window are raised to
   alpha_r[v]^2 / piv^2 times the entering weight; the leaver gets its
   reference weight refreshed exactly. A selected weight past the cap
   means the framework has drifted: reset to all ones. *)
let devex_update t q ip =
  let open Unchecked in
  let piv = t.alpha.(ip) in
  let wq = Float.max t.dw.(q) 1.0 in
  if wq > devex_weight_cap then begin
    Array.fill t.dw 0 t.nt 1.0;
    t.ndevex_reset <- t.ndevex_reset + 1
  end
  else begin
    let inv2 = 1.0 /. (piv *. piv) in
    for s = 0 to t.ncand - 1 do
      let v = t.cand.(s) in
      if v <> q && t.loc.(v) < 0 then begin
        let arj = t.prow.(v) in
        if Float.abs arj > zero_tol then begin
          let w = arj *. arj *. inv2 *. wq in
          if w > t.dw.(v) then t.dw.(v) <- w
        end
      end
    done;
    t.dw.(t.basis.(ip)) <- Float.max (wq *. inv2) 1.0
  end

(* --- pivoting ---------------------------------------------------------- *)

type ratio_outcome =
  | Flip of float (* step length hits entering variable's opposite bound *)
  | Block of int * float * int (* position, step, new loc for leaver *)
  | NoBlock

(* The bound at which basic variable [bv], moving at rate [d], blocks,
   as the status it leaves with: -2 at its upper bound, -1 at its lower
   bound, 0 when it does not block in this direction. *)
let[@inline] blocking_side t ~phase1 bv d =
  let open Unchecked in
  let v = t.xval.(bv) in
  if phase1 && v > t.ub.(bv) +. feas_tol then if d < 0.0 then -2 else 0
  else if phase1 && v < t.lb.(bv) -. feas_tol then if d > 0.0 then -1 else 0
  else if d > 0.0 then -2
  else -1

(* Harris two-pass ratio test. Pass 1 computes the largest step allowed
   when every blocking bound is relaxed by [tols.harris]; pass 2 picks,
   among the blockers whose strict step fits within that relaxed step,
   the one with the largest pivot magnitude — degenerate ties resolve
   to the numerically safest pivot at the price of bound violations no
   larger than the relaxation. A bounded entering column whose opposite
   bound lies within the relaxed step flips between its bounds without
   a basis change. [phase1] relaxes blocking for infeasible basics:
   they only block at the bound they currently violate. *)
let ratio_test t q sigma ~phase1 =
  let open Unchecked in
  let alpha = t.alpha and basis = t.basis and xval = t.xval in
  (* both Harris passes skip alpha's zeros: those rows never block *)
  let tmax_rel = ref infinity in
  for i = 0 to t.m - 1 do
    let a = alpha.(i) in
    if a <> 0.0 then begin
      let d = -.sigma *. a in
      if Float.abs d > pivot_tol then begin
        let bv = basis.(i) in
        let side = blocking_side t ~phase1 bv d in
        if side <> 0 then begin
          let bound = if side = -2 then t.ub.(bv) else t.lb.(bv) in
          if Float.is_finite bound then begin
            let strict = Float.max ((bound -. xval.(bv)) /. d) 0.0 in
            let relaxed = strict +. (tols.harris /. Float.abs d) in
            if relaxed < !tmax_rel then tmax_rel := relaxed
          end
        end
      end
    end
  done;
  let bound_gap = t.ub.(q) -. t.lb.(q) in
  if Float.is_finite bound_gap && bound_gap <= !tmax_rel then Flip bound_gap
  else if !tmax_rel = infinity then NoBlock
  else begin
    let blocker = ref (-1)
    and leave_loc = ref (-1)
    and bstep = ref 0.0
    and bmag = ref 0.0 in
    for i = 0 to t.m - 1 do
      let a = alpha.(i) in
      if a <> 0.0 then begin
        let d = -.sigma *. a in
        if Float.abs d > pivot_tol then begin
          let bv = basis.(i) in
          let side = blocking_side t ~phase1 bv d in
          if side <> 0 then begin
            let bound = if side = -2 then t.ub.(bv) else t.lb.(bv) in
            if Float.is_finite bound then begin
              let strict = Float.max ((bound -. xval.(bv)) /. d) 0.0 in
              if strict <= !tmax_rel +. tie_tol && Float.abs d > !bmag
              then begin
                blocker := i;
                leave_loc := side;
                bstep := strict;
                bmag := Float.abs d
              end
            end
          end
        end
      end
    done;
    if !blocker < 0 then NoBlock
    else Block (!blocker, Float.min !bstep !tmax_rel, !leave_loc)
  end

let apply_step t q sigma step =
  let open Unchecked in
  (* move entering by sigma*step, basics by -sigma*alpha*step *)
  if step <> 0.0 then begin
    let alpha = t.alpha and basis = t.basis and xval = t.xval in
    xval.(q) <- xval.(q) +. (sigma *. step);
    for i = 0 to t.m - 1 do
      let a = alpha.(i) in
      if Float.abs a > zero_tol then begin
        let bv = basis.(i) in
        xval.(bv) <- xval.(bv) -. (sigma *. a *. step)
      end
    done
  end

(* Absorb the exchange at position [ip] into the eta file; refactorize on
   schedule, when the eta file outgrows the factors, or on a bad pivot. *)
let update_lu t ip =
  let h0 = tick t in
  match Lu.update t.lu ~pos:ip ~alpha:t.alpha with
  | () ->
      tock t ph_lu_update h0;
      if Lu.eta_count t.lu > t.max_eta then t.max_eta <- Lu.eta_count t.lu;
      if
        t.since_refactor >= refactor_every
        || Lu.eta_nnz t.lu > (4 * t.m) + (2 * Lu.basis_nnz t.lu)
      then refactor t
  | exception Lu.Singular ->
      tock t ph_lu_update h0;
      refactor t

let do_pivot t q sigma ip step leave_loc =
  let h0 = if Mm_obs.Trace.active t.tr then Mm_obs.Trace.now_ns () else 0L in
  pivot_row t ip;
  devex_update t q ip;
  if t.d_live then update_d t q ip (t.alpha.(ip));
  apply_step t q sigma step;
  let leaver = t.basis.(ip) in
  t.basis.(ip) <- q;
  t.loc.(q) <- ip;
  t.loc.(leaver) <- leave_loc;
  (* snap the leaver exactly onto its bound to kill drift *)
  t.xval.(leaver) <- nonbasic_value t leaver;
  t.niter <- t.niter + 1;
  t.since_refactor <- t.since_refactor + 1;
  if step <= tols.degenerate then
    t.degenerate_streak <- t.degenerate_streak + 1
  else t.degenerate_streak <- 0;
  update_lu t ip;
  (* includes any refactorization triggered by this pivot *)
  if Mm_obs.Trace.active t.tr then
    Mm_obs.Trace.hist_add t.pivot_hist
      (Int64.sub (Mm_obs.Trace.now_ns ()) h0)

let do_flip t q sigma gap =
  apply_step t q sigma gap;
  t.loc.(q) <- (if t.loc.(q) = -1 then -2 else -1);
  t.xval.(q) <- nonbasic_value t q;
  t.niter <- t.niter + 1;
  t.nflip <- t.nflip + 1;
  t.degenerate_streak <- 0

(* --- phases ------------------------------------------------------------ *)

let infeasibility t =
  let open Unchecked in
  let acc = ref 0.0 in
  for i = 0 to t.m - 1 do
    let v = t.basis.(i) in
    let x = t.xval.(v) in
    if x > t.ub.(v) then acc := !acc +. (x -. t.ub.(v))
    else if x < t.lb.(v) then acc := !acc +. (t.lb.(v) -. x)
  done;
  !acc

let phase1_inner t limit out_of_time =
  t.d_live <- false;
  let rec loop () =
    if t.niter >= limit || out_of_time () then Iteration_limit
    else if infeasibility t <= feas_tol *. float_of_int (t.m + 1) then Optimal
    else begin
      Array.fill t.pcost 0 t.nt 0.0;
      (let open Unchecked in
       for i = 0 to t.m - 1 do
         let v = t.basis.(i) in
         let x = t.xval.(v) in
         if x > t.ub.(v) +. feas_tol then t.pcost.(v) <- 1.0
         else if x < t.lb.(v) -. feas_tol then t.pcost.(v) <- -1.0
       done);
      compute_duals t t.pcost;
      let bland = t.degenerate_streak > 200 in
      match price t ~bland with
      | None -> Infeasible
      | Some (q, sigma) -> (
          ftran t q;
          match ratio_test t q sigma ~phase1:true with
          | Flip gap ->
              do_flip t q sigma gap;
              loop ()
          | Block (ip, step, lloc) ->
              if Float.abs (t.alpha.(ip)) < pivot_tol then begin
                refactor t;
                loop ()
              end
              else begin
                do_pivot t q sigma ip step lloc;
                loop ()
              end
          | NoBlock ->
              (* a priced-out phase-1 direction always has a blocking
                 infeasible basic; numerical drift can break this, so
                 refactor and retry once before giving up *)
              if t.since_refactor > 0 then begin
                refactor t;
                loop ()
              end
              else Infeasible)
    end
  in
  loop ()

let phase1 t limit out_of_time =
  let before = t.niter in
  let r = phase1_inner t limit out_of_time in
  t.phase1_iters <- t.phase1_iters + (t.niter - before);
  r

let phase2 t limit out_of_time =
  (* the Devex reference framework accumulated during phase 1 (or left
     behind by a previous solve after an arbitrary basis restore) prices
     the phase-2 geometry poorly; restart it *)
  if t.niter > 0 then begin
    Array.fill t.dw 0 t.nt 1.0;
    t.ncand <- 0
  end;
  (* the dual phase hands over a live [d]; after phase 1 it is rebuilt *)
  if not t.d_live then begin
    t.d_live <- true;
    refresh_d t
  end;
  let rec loop () =
    if t.niter >= limit || out_of_time () then Iteration_limit
    else begin
      let bland = t.degenerate_streak > 200 in
      match price t ~bland with
      | None ->
          (* a maintained [d] carries rounding: confirm optimality on
             exact reduced costs, and go on pivoting if they disagree *)
          if t.d_stale then begin
            refresh_d t;
            loop ()
          end
          else Optimal
      | Some (q, sigma) -> (
          ftran t q;
          match ratio_test t q sigma ~phase1:false with
          | Flip gap ->
              do_flip t q sigma gap;
              loop ()
          | Block (ip, step, lloc) ->
              if Float.abs (t.alpha.(ip)) < pivot_tol then begin
                refactor t;
                loop ()
              end
              else begin
                do_pivot t q sigma ip step lloc;
                loop ()
              end
          | NoBlock -> Unbounded)
    end
  in
  loop ()

(* --- dual simplex ------------------------------------------------------ *)

(* Refreshes [d] exactly and makes it live: the dual phase starts from
   these reduced costs when they are sign-feasible. *)
let is_dual_feasible t =
  t.d_live <- true;
  refresh_d t;
  let ok = ref true in
  for v = 0 to t.nt - 1 do
    if !ok && t.loc.(v) < 0 then begin
      let d = t.d.(v) in
      match t.loc.(v) with
      | -1 -> if d < -.tols.dual_start && t.ub.(v) > t.lb.(v) then ok := false
      | -2 -> if d > tols.dual_start && t.ub.(v) > t.lb.(v) then ok := false
      | _ -> if Float.abs d > tols.dual_start then ok := false
    end
  done;
  !ok

(* One dual simplex run from the current (dual-feasible) basis, with
   [d] live. Restores primal feasibility while keeping dual
   feasibility; ends Optimal, Infeasible (primal), or Iteration_limit.
   The leaving row maximizes violation^2 / weight with dual Devex row
   weights; the exact norm of rho cross-checks the approximate weight
   and resets the framework on drift. The pivot row drives both the
   ratio test and the update of [d]. *)
let dual_phase t limit out_of_time =
  let open Unchecked in
  let exception Numerical_trouble in
  try
    let rec loop () =
      if t.niter >= limit || out_of_time () then Iteration_limit
      else begin
        (* leaving row: best weighted violation *)
        let leave = ref (-1) and best = ref 0.0 and increase = ref false in
        for i = 0 to t.m - 1 do
          let v = t.basis.(i) in
          let x = t.xval.(v) in
          let viol_lo = t.lb.(v) -. x and viol_hi = x -. t.ub.(v) in
          if viol_lo > feas_tol then begin
            let sc = viol_lo *. viol_lo /. t.drw.(i) in
            if sc > !best then begin
              leave := i;
              best := sc;
              increase := true
            end
          end
          else if viol_hi > feas_tol then begin
            let sc = viol_hi *. viol_hi /. t.drw.(i) in
            if sc > !best then begin
              leave := i;
              best := sc;
              increase := false
            end
          end
        done;
        if !leave < 0 then Optimal
        else begin
          let ip = !leave in
          (* rho := row ip of the basis inverse, and the pivot row
             from it *)
          pivot_row t ip;
          let wip =
            let exact = ref 0.0 in
            for i = 0 to t.m - 1 do
              let r = t.rho.(i) in
              if r <> 0.0 then exact := !exact +. (r *. r)
            done;
            if !exact > devex_drift_factor *. t.drw.(ip) then begin
              (* the reference framework no longer tracks the true
                 row norms: reset it *)
              Array.fill t.drw 0 t.m 1.0;
              t.ndevex_reset <- t.ndevex_reset + 1
            end;
            Float.max t.drw.(ip) !exact
          in
          (* entering variable: dual ratio test over sign-eligible
             nonbasic columns *)
          let h0 = tick t in
          let best = ref (-1)
          and best_ratio = ref infinity
          and best_mag = ref 0.0 in
          for v = 0 to t.nt - 1 do
            if t.loc.(v) < 0 && t.ub.(v) > t.lb.(v) then begin
              let a = t.prow.(v) in
              if Float.abs a > pivot_tol then begin
                let eligible =
                  match t.loc.(v) with
                  | -1 -> if !increase then a < 0.0 else a > 0.0
                  | -2 -> if !increase then a > 0.0 else a < 0.0
                  | _ -> true (* free variables can move either way *)
                in
                if eligible then begin
                  let ratio = Float.abs t.d.(v) /. Float.abs a in
                  if
                    ratio < !best_ratio -. tie_tol
                    || (ratio < !best_ratio +. tie_tol
                        && Float.abs a > !best_mag)
                  then begin
                    best := v;
                    best_ratio := ratio;
                    best_mag := Float.abs a
                  end
                end
              end
            end
          done;
          tock t ph_price h0;
          if !best < 0 then Infeasible
          else begin
            let q = !best in
            ftran t q;
            if Float.abs (t.alpha.(ip)) < pivot_tol then
              raise Numerical_trouble;
            (* dual Devex row-weight update from the entering column's
               ftran, over alpha's nonzeros only *)
            let piv = t.alpha.(ip) in
            let inv2 = 1.0 /. (piv *. piv) in
            for i = 0 to t.m - 1 do
              let a = t.alpha.(i) in
              if i <> ip && Float.abs a > zero_tol then begin
                let w = a *. a *. inv2 *. wip in
                if w > t.drw.(i) then t.drw.(i) <- w
              end
            done;
            t.drw.(ip) <- Float.max (wip *. inv2) 1.0;
            (* the dual step: theta_d = d_q / alpha_r[q], from the row
               the ratio test read *)
            update_d t q ip t.prow.(q);
            let leaver = t.basis.(ip) in
            let leave_loc = if !increase then -1 else -2 in
            t.basis.(ip) <- q;
            t.loc.(q) <- ip;
            t.loc.(leaver) <- leave_loc;
            t.niter <- t.niter + 1;
            t.since_refactor <- t.since_refactor + 1;
            update_lu t ip;
            if t.since_refactor > 0 then begin
              let h0 = tick t in
              compute_basics t;
              tock t ph_ftran h0
            end;
            loop ()
          end
        end
      end
    in
    compute_basics t;
    loop ()
  with Numerical_trouble ->
    refactor t;
    Iteration_limit

let solve ?iteration_limit ?deadline ?(prefer_dual = false) t =
  let limit =
    t.niter
    + (match iteration_limit with
      | Some l -> l
      | None -> 50_000 + (20 * (t.m + t.n)))
  in
  let out_of_time =
    match deadline with
    | None -> fun () -> false
    | Some d ->
        let counter = ref 0 in
        fun () ->
          incr counter;
          if !counter land 63 = 0 then Unix.gettimeofday () > d else false
  in
  t.degenerate_streak <- 0;
  t.d_live <- false;
  refactor t;
  let primal_path () =
    match phase1 t limit out_of_time with
    | Optimal ->
        let r = phase2 t limit out_of_time in
        if r = Optimal && infeasibility t > feas_tol *. float_of_int (t.m + 1)
        then begin
          (* numerical drift re-introduced infeasibility: one clean retry *)
          refactor t;
          match phase1 t limit out_of_time with
          | Optimal -> phase2 t limit out_of_time
          | other -> other
        end
        else r
    | other -> other
  in
  let r =
    if prefer_dual && is_dual_feasible t then begin
      (* give the dual method a bounded head start; any trouble falls
         back to the safe primal two-phase path *)
      let dual_limit = min limit (t.niter + 2_000 + (4 * t.m)) in
      match dual_phase t dual_limit out_of_time with
      | Optimal ->
          (* confirm with a (normally zero-pivot) primal phase-2 pass *)
          if infeasibility t <= feas_tol *. float_of_int (t.m + 1) then
            phase2 t limit out_of_time
          else primal_path ()
      | Infeasible -> Infeasible
      | Unbounded | Iteration_limit ->
          if out_of_time () || t.niter >= limit then Iteration_limit
          else primal_path ()
    end
    else primal_path ()
  in
  (* [d] only tracks the basis inside a solve *)
  t.d_live <- false;
  r

(* --- accessors ---------------------------------------------------------- *)

let objective t =
  let acc = ref t.p.Problem.obj_const in
  for j = 0 to t.n - 1 do
    acc := !acc +. (t.cost.(j) *. t.xval.(j))
  done;
  !acc

let primal t = Array.sub t.xval 0 t.n

let reduced_costs t =
  compute_duals t t.cost;
  Array.init t.n (fun j -> t.cost.(j) -. dot_col t t.y j)

let duals t =
  compute_duals t t.cost;
  Array.copy t.y


let stats t =
  {
    pivots = t.niter;
    phase1_pivots = t.phase1_iters;
    flips = t.nflip;
    refactorizations = t.nrefactor;
    devex_resets = t.ndevex_reset;
    max_eta = t.max_eta;
    lu_fill = t.max_fill;
    basis_nnz = t.max_bnnz;
    sparse_solves = 0;
    dense_fallbacks = t.nsolves;
    cols_priced = t.ncols_priced;
    price_s = 1e-9 *. float_of_int t.phase_ns.(ph_price);
    duals_s = 1e-9 *. float_of_int t.phase_ns.(ph_duals);
    ftran_s = 1e-9 *. float_of_int t.phase_ns.(ph_ftran);
    btran_s = 1e-9 *. float_of_int t.phase_ns.(ph_btran);
    lu_update_s = 1e-9 *. float_of_int t.phase_ns.(ph_lu_update);
    refactor_s = 1e-9 *. float_of_int t.phase_ns.(ph_refactor);
  }

let set_trace t s = t.tr <- s

let flush_trace t =
  Mm_obs.Trace.emit_hist t.tr "pivot" t.pivot_hist;
  Array.iteri
    (fun ph name -> Mm_obs.Trace.emit_hist t.tr name t.phase_hist.(ph))
    phase_names;
  Mm_obs.Trace.emit_hist t.tr "ftran_density_permille" t.ftran_hist;
  Mm_obs.Trace.emit_hist t.tr "btran_density_permille" t.btran_hist;
  if Mm_obs.Trace.active t.tr then begin
    if t.nflip > t.flushed_flips then
      Mm_obs.Trace.count t.tr "flip" (t.nflip - t.flushed_flips);
    if t.ndevex_reset > t.flushed_resets then
      Mm_obs.Trace.count t.tr "devex_reset" (t.ndevex_reset - t.flushed_resets);
    if t.ncols_priced > t.flushed_priced then
      Mm_obs.Trace.count t.tr "cols_priced" (t.ncols_priced - t.flushed_priced)
  end;
  t.flushed_flips <- t.nflip;
  t.flushed_resets <- t.ndevex_reset;
  t.flushed_priced <- t.ncols_priced

let set_bounds t j lb ub =
  if j < 0 || j >= t.n then invalid_arg "Simplex.set_bounds";
  if lb > ub then invalid_arg "Simplex.set_bounds: lb > ub";
  t.lb.(j) <- lb;
  t.ub.(j) <- ub;
  if t.loc.(j) < 0 then begin
    (* keep the nonbasic variable on a valid bound *)
    (match t.loc.(j) with
    | -1 ->
        if not (Float.is_finite lb) then
          t.loc.(j) <- (if Float.is_finite ub then -2 else -3)
    | -2 ->
        if not (Float.is_finite ub) then
          t.loc.(j) <- (if Float.is_finite lb then -1 else -3)
    | _ -> ());
    t.xval.(j) <- nonbasic_value t j
  end

let get_bounds t j =
  if j < 0 || j >= t.n then invalid_arg "Simplex.get_bounds";
  (t.lb.(j), t.ub.(j))

let save_bounds t = (Array.sub t.lb 0 t.n, Array.sub t.ub 0 t.n)

let restore_bounds t (lb, ub) =
  if Array.length lb <> t.n || Array.length ub <> t.n then
    invalid_arg "Simplex.restore_bounds";
  Array.blit lb 0 t.lb 0 t.n;
  Array.blit ub 0 t.ub 0 t.n;
  for j = 0 to t.n - 1 do
    if t.loc.(j) < 0 then t.xval.(j) <- nonbasic_value t j
  done

(* --- basis snapshots ---------------------------------------------------- *)

(* Compact encoding for branch-and-bound warm starts: the basis array
   plus one status byte per variable. Basic positions are re-derived
   from the basis array on restore, so the snapshot is ~(m + n+m bytes)
   rather than two full int arrays. *)
type basis = { b : int array; status : Bytes.t }

let basis_snapshot t =
  let status = Bytes.create t.nt in
  for v = 0 to t.nt - 1 do
    Bytes.unsafe_set status v
      (match t.loc.(v) with
      | -1 -> '\000'
      | -2 -> '\001'
      | -3 -> '\002'
      | _ -> '\003')
  done;
  { b = Array.copy t.basis; status }

(* persistence view: status bytes '\000'..'\003' travel as the ASCII
   digits '0'..'3' so the serialized form is printable JSON *)
let basis_export { b; status } =
  let s = Bytes.map (fun c -> Char.chr (Char.code c + Char.code '0')) status in
  (Array.copy b, Bytes.to_string s)

(* A snapshot is only as consistent as the basis it came from: every
   entry of [b] a distinct variable that [status] marks basic, and no
   other variable marked basic. {!restore_basis} relies on that (an
   unlisted '3' would leave a variable "basic" at no position, never
   priced again), so an imported one is checked here. *)
let basis_import ~b ~status =
  let nts = String.length status in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if String.exists (fun c -> c < '0' || c > '3') status then
    Error "basis status has characters outside '0'..'3'"
  else begin
    let listed = Bytes.make nts '\000' in
    let rec check k =
      if k = Array.length b then
        let marked = ref 0 in
        String.iter (fun c -> if c = '3' then incr marked) status;
        if !marked = Array.length b then Ok ()
        else
          err "basis status marks %d variables basic, the basis lists %d"
            !marked (Array.length b)
      else
        let v = b.(k) in
        if v < 0 || v >= nts then
          err "basic variable %d outside 0..%d" v (nts - 1)
        else if Bytes.get listed v <> '\000' then
          err "basic variable %d listed twice" v
        else if status.[v] <> '3' then
          err "basic variable %d not marked basic in the status" v
        else begin
          Bytes.set listed v '\001';
          check (k + 1)
        end
    in
    Result.map
      (fun () ->
        {
          b = Array.copy b;
          status =
            Bytes.map
              (fun c -> Char.chr (Char.code c - Char.code '0'))
              (Bytes.of_string status);
        })
      (check 0)
  end

let restore_basis t { b; status } =
  let ms = Array.length b and nts = Bytes.length status in
  (* a snapshot from the same problem with fewer rows (taken before
     pooled cut rows were appended) is acceptable: the missing rows'
     slacks enter basic on themselves, the [create_from] convention *)
  if ms > t.m || nts - ms <> t.nt - t.m then
    invalid_arg "Simplex.restore_basis";
  for v = 0 to t.nt - 1 do
    t.loc.(v) <-
      (if v >= nts then 0 (* appended row's slack: basic, position below *)
       else
         match Bytes.unsafe_get status v with
         | '\000' -> -1
         | '\001' -> -2
         | '\002' -> -3
         | _ -> 0 (* basic; real position set below *))
  done;
  Array.blit b 0 t.basis 0 ms;
  for r = ms to t.m - 1 do
    t.basis.(r) <- t.n + r
  done;
  for k = 0 to t.m - 1 do
    t.loc.(t.basis.(k)) <- k
  done;
  (* bounds may have changed since the snapshot: snap nonbasic statuses *)
  for v = 0 to t.nt - 1 do
    if t.loc.(v) < 0 then begin
      (match t.loc.(v) with
      | -1 when not (Float.is_finite t.lb.(v)) ->
          t.loc.(v) <- (if Float.is_finite t.ub.(v) then -2 else -3)
      | -2 when not (Float.is_finite t.ub.(v)) ->
          t.loc.(v) <- (if Float.is_finite t.lb.(v) then -1 else -3)
      | _ -> ());
      t.xval.(v) <- nonbasic_value t v
    end
  done

(* --- tableau access ----------------------------------------------------- *)

type var_status = Basic | At_lower | At_upper | Free_nonbasic

let num_rows t = t.m

let basic_var t pos =
  if pos < 0 || pos >= t.m then invalid_arg "Simplex.basic_var";
  t.basis.(pos)

let var_status t v =
  if v < 0 || v >= t.nt then invalid_arg "Simplex.var_status";
  match t.loc.(v) with
  | -1 -> At_lower
  | -2 -> At_upper
  | -3 -> Free_nonbasic
  | _ -> Basic

let var_value t v =
  if v < 0 || v >= t.nt then invalid_arg "Simplex.var_value";
  t.xval.(v)

let var_bounds_all t v =
  if v < 0 || v >= t.nt then invalid_arg "Simplex.var_bounds_all";
  (t.lb.(v), t.ub.(v))

let tableau_row t ~pos =
  if pos < 0 || pos >= t.m then invalid_arg "Simplex.tableau_row";
  (* separation runs between solves, when the pivot row buffers hold
     nothing the next pivot needs *)
  pivot_row t pos;
  let row = Array.make t.nt 0.0 in
  for s = 0 to t.pnnz - 1 do
    let v = t.pidx.(s) in
    row.(v) <- t.prow.(v)
  done;
  Array.iter (fun v -> row.(v) <- 0.0) t.basis;
  row
