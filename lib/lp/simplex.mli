(** Bounded-variable revised simplex over the continuous relaxation of a
    {!Problem.t}.

    The basis is kept as a sparse LU factorization (Markowitz pivoting,
    {!Lu}) with product-form eta updates between refactorizations;
    pricing and ratio tests go through its ftran/btran solves rather
    than an explicit inverse. Phase I is composite (artificial-free). Variable
    bounds are owned by the solver state and may be tightened between
    solves, which is how {!Branch_bound} warm-starts node relaxations
    from a parent basis snapshot.

    Pricing is Devex: reference-framework weights over a rotating
    candidate-list window, with Bland's rule as the anti-cycling
    fallback on long degenerate streaks, and a Harris two-pass ratio
    test with bound flips. Phase 2 and the dual method price from
    reduced costs maintained by one row-wise pivot row per basis change
    and refreshed exactly at every refactorization and before
    optimality is declared. Pricing is deterministic: repeated solves
    of the same problem perform the same pivots.

    Integrality restrictions in the problem are ignored here. *)

type t

type result =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit  (** ran out of pivots; solution is not meaningful *)

type tolerances = {
  feas : float;  (** primal feasibility on variable/row bounds *)
  opt : float;  (** dual feasibility: reduced-cost pricing threshold *)
  pivot : float;  (** smallest acceptable pivot magnitude *)
  zero : float;  (** drop threshold for update arithmetic *)
  ratio_tie : float;  (** tie window shared by primal and dual ratio tests *)
  harris : float;  (** Harris pass-1 bound relaxation *)
  price_tie : float;
      (** relative window within which Devex pricing scores tie; ties
          go to the lowest variable index *)
  dual_start : float;
      (** largest reduced-cost sign violation a basis may carry and
          still start the dual method *)
  degenerate : float;
      (** step length at or below which a pivot counts as degenerate
          (long degenerate streaks switch pricing to Bland) *)
}

val tols : tolerances
(** The solver's numerical tolerances. One shared record so the primal,
    dual and Harris ratio tests cannot drift apart again. *)

type stats = {
  pivots : int;  (** simplex iterations, bound flips included *)
  phase1_pivots : int;  (** iterations spent restoring feasibility *)
  flips : int;  (** bound flips performed without a basis change *)
  refactorizations : int;  (** sparse LU factorizations performed *)
  devex_resets : int;  (** Devex reference frameworks abandoned on drift *)
  max_eta : int;  (** longest eta file reached between refactorizations *)
  lu_fill : int;  (** worst fill-in of any factorization *)
  basis_nnz : int;  (** largest basis nonzero count factored *)
  sparse_solves : int;  (** always 0: the LU has no hypersparse path *)
  dense_fallbacks : int;  (** LU ftran/btran solves, every one a dense sweep *)
  cols_priced : int;
      (** columns priced by a dot product: phase-1 pricing and the
          exact refreshes of the maintained reduced costs *)
  price_s : float;
      (** seconds choosing entering variables (phase-1 dot products,
          window scans, the dual ratio test, reduced-cost refreshes);
          this and the other [_s] fields are timed only while a trace
          is active and read 0 otherwise *)
  duals_s : float;  (** seconds in the btran that solves for the duals *)
  ftran_s : float;
      (** seconds in ftran: entering columns, and the basic values the
          dual method recomputes after each pivot *)
  btran_s : float;  (** seconds building pivot rows (unit btran + row sweep) *)
  lu_update_s : float;  (** seconds absorbing pivots into the eta file *)
  refactor_s : float;
      (** seconds refactorizing: the factorization plus the basic
          values recomputed from it *)
}

val empty_stats : stats

val merge_stats : stats -> stats -> stats
(** Combine counters from independent solver instances: counts and
    seconds add, gauges ([max_eta], [lu_fill], [basis_nnz]) take the
    max. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line human-readable rendering. *)

val create : Problem.t -> t
(** Builds solver state with the slack basis. Raises [Invalid_argument]
    when {!Problem.validate} rejects the problem: the pivot kernels
    index its column and row arrays without bounds checks. *)

val create_from : t -> Problem.t -> t
(** [create_from prev p'] builds solver state for [p'], which must be
    [prev]'s problem with extra rows appended (identical columns and
    existing rows). The previous basis, Devex weights and {e current}
    variable bounds carry over (so a branch-and-bound worker extending
    its LP with pooled cut rows keeps its node bound tightenings) and
    the appended rows' slacks enter basic, so after an optimal [prev]
    the new state is dual feasible and {!solve} [~prefer_dual:true]
    re-optimizes in a few dual pivots — the root cut loop's warm
    restart. Raises [Invalid_argument] if [p'] is not a row extension
    of [prev]'s problem. *)

val solve :
  ?iteration_limit:int -> ?deadline:float -> ?prefer_dual:bool -> t -> result
(** Optimizes from the current basis and bounds. Default iteration limit
    is [50_000 + 20 * (rows + cols)]. [deadline] is an absolute
    [Unix.gettimeofday] instant; passing it yields [Iteration_limit]
    once the clock runs out.

    [prefer_dual] (default false) first attempts the dual simplex from
    the current basis. After tightening variable bounds on an optimal
    basis — the branch-and-bound re-solve pattern — the basis stays dual
    feasible and the dual method restores primal feasibility in a few
    pivots; when the basis is not dual feasible (or the dual run hits
    numerical trouble) the primal two-phase method runs as usual. *)

val objective : t -> float
(** Objective value of the last solve, in the minimization sense used
    internally (callers converting for maximization should use
    {!Problem.objective_value} on {!primal}). *)

val primal : t -> float array
(** Values of the structural variables (length [ncols]). *)

val reduced_costs : t -> float array
(** Reduced costs of structural variables at the final basis, computed
    fresh from the factorization (one btran), never read from the
    maintained pricing array. *)

val duals : t -> float array
(** Row dual multipliers at the final basis, computed fresh like
    {!reduced_costs}. *)

val stats : t -> stats
(** Cumulative instrumentation counters since creation. *)

val set_trace : t -> Mm_obs.Trace.sink -> unit
(** Attach a trace sink: every pivot, refactorization and per-pivot
    phase (price, duals, ftran, btran, lu update) is then timed into
    per-instance latency histograms and the [_s] fields of {!stats}
    (a no-op sink costs one pattern match per timed section). The
    instance must be driven by the domain owning the sink. *)

val flush_trace : t -> unit
(** Emit the accumulated pivot, refactorization and per-phase
    histograms plus bound-flip, Devex-reset and [cols_priced] count
    deltas as trace events and reset them; a no-op without an active
    sink. *)

val refactor : t -> unit
(** Discard the eta file, factor the current basis from scratch and
    recompute basic values. Exposed for testing (a refactorization must
    not change the primal point) and for callers that want a clean
    factorization before reading solutions. *)

val set_bounds : t -> int -> float -> float -> unit
(** [set_bounds t j lb ub] overrides the bounds of structural variable
    [j]. The basis is kept; nonbasic variables are snapped into range. *)

val get_bounds : t -> int -> float * float

val save_bounds : t -> float array * float array
(** Snapshot of all structural bounds (copies). *)

val restore_bounds : t -> float array * float array -> unit

type basis
(** Compact immutable basis snapshot: basis array plus one status byte
    per variable. Sharable between branch-and-bound nodes. *)

val basis_snapshot : t -> basis

val restore_basis : t -> basis -> unit
(** Restores a snapshot taken on the same problem, or on the same
    problem with {e fewer} rows (a snapshot predating appended cut
    rows): the missing rows' slacks enter basic on themselves, matching
    the {!create_from} convention. Nonbasic variables whose bound has
    since become infinite are snapped to a valid status. The
    factorization is rebuilt on the next {!solve} (or by an explicit
    {!refactor}). *)

val basis_export : basis -> int array * string
(** Plain-data view of a snapshot for persistence: the basic-variable
    array (one entry per row) and one status character per variable,
    drawn from ['0'] (nonbasic at lower), ['1'] (at upper), ['2']
    (free) and ['3'] (basic). Arrays are copies — mutating them cannot
    corrupt the snapshot. *)

val basis_import : b:int array -> status:string -> (basis, string) Stdlib.result
(** Rebuilds a snapshot from {!basis_export} data. Rejects it unless
    every status character is in ['0'..'3'], every entry of [b] is a
    distinct variable index below [String.length status], and the
    ['3'] characters mark exactly [b]'s entries — the validation a
    persisted (possibly hand-edited or truncated) cache file needs:
    {!restore_basis} and the solver's unchecked kernels rely on a
    snapshot describing a basis. *)

(** {2 Tableau access}

    Read-only access to the optimal basis, for cut separation (Gomory
    mixed-integer rows). Only meaningful right after a {!solve} that
    returned {!Optimal}. Variable indices run over the internal space
    [0 .. ncols + nrows - 1]: structural columns first, then one slack
    per row (constraint [r] reads [A_r x - s_r = 0] with
    [row_lb <= s_r <= row_ub]). *)

type var_status = Basic | At_lower | At_upper | Free_nonbasic

val num_rows : t -> int
(** Rows of the instance (slack count). *)

val basic_var : t -> int -> int
(** [basic_var t pos] is the variable basic at position [pos]. *)

val var_status : t -> int -> var_status
val var_value : t -> int -> float

val var_bounds_all : t -> int -> float * float
(** Current bounds of any internal variable, slacks included (unlike
    {!get_bounds}, which is restricted to structural columns). *)

val tableau_row : t -> pos:int -> float array
(** [tableau_row t ~pos] is row [pos] of [B⁻¹ [A | -I]] as a dense
    array over the internal variable space: the coefficients [a_w] of
    the basic variable's row [x_B(pos) + Σ_w a_w x_w = 0]. Basic
    entries read 0 (the unit column of the basic variable itself is
    implicit). Computed like a pivot row and returned in a fresh
    array; meant for separation between solves, not the pivot loop. *)
