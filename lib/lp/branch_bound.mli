(** Branch-and-bound mixed-integer solver on top of {!Simplex}.

    Search: best-bound node queue with depth-first plunging, pseudocost
    branching (initialized most-fractional) over the fractional columns
    with a nonzero objective coefficient while any exists, a
    nearest-integer rounding heuristic at every node, and warm-started
    node relaxations: every node carries an explicit {!Simplex.basis}
    snapshot of its parent's optimal basis (shared by both children),
    restored before the node LP is solved; the root restores the
    caller's root optimum ([?root_basis]).

    When a {!Cut_pool} is supplied ([?cuts]), shallow nodes can
    re-separate bound-free cut families on their fractional optimum:
    accepted cuts enter the pool's global activation list and every
    worker appends the same row sequence to its private LP (lazily, on
    first contact with a node that needs them), which keeps basis
    snapshots exchangeable across workers with different cut counts.

    With [parallelism > 1] the tree is explored by that many OCaml
    domains sharing a {!Node_pool}: each domain owns a private
    {!Simplex} workspace (and its LU factors) plus private pseudocost
    statistics; the incumbent is published through an [Atomic] and
    bound pruning is re-checked at dequeue time. Determinism contract:
    [parallelism = 1] runs the historical serial schedule node for
    node, and any [parallelism] proves the same optimal objective. *)

type status =
  | Optimal  (** incumbent proved optimal *)
  | Feasible  (** limit hit with an incumbent *)
  | Infeasible
  | Unbounded
  | Unknown  (** limit hit before any incumbent *)

val status_to_string : status -> string
(** The wire name: ["optimal"], ["feasible"], ["infeasible"],
    ["unbounded"] or ["unknown"]. *)

type options = {
  time_limit : float option;  (** wall-clock seconds *)
  node_limit : int option;
  parallelism : int;
      (** worker domains for the tree search; 1 (default) is the
          deterministic serial schedule, [<= 0] asks the runtime for
          [Domain.recommended_domain_count ()] *)
  trace : Mm_obs.Trace.t;
      (** structured tracing (default disabled): each worker domain
          registers one sink and records node, incumbent, steal and
          idle events plus pivot/refactorization latency histograms;
          {!Solver} records its phase spans on the same trace *)
  node_cut_depth : int;
      (** deepest node allowed to run a separation round (default 2 —
          shallow nodes reshape the whole subtree below them, while
          deep re-separation mostly buys dense LPs, measured on the
          Table-3 sweep; [0] disables node cuts even when a pool is
          supplied) *)
  node_cut_freq : int;
      (** a worker separates at every [freq]-th node it processes
          within the depth window, default 4 *)
}

val default_options : options

val options :
  ?time_limit:float ->
  ?node_limit:int ->
  ?parallelism:int ->
  ?trace:Mm_obs.Trace.t ->
  ?node_cut_depth:int ->
  ?node_cut_freq:int ->
  unit ->
  options
(** Builder for {!options}; prefer this over record literals so new
    fields stay non-breaking. Unset labels take their values from
    {!default_options}. *)

type par_stats = {
  domains_used : int;  (** worker domains actually spawned *)
  nodes_stolen : int;  (** nodes migrated across per-domain deques *)
  idle_seconds : float;  (** total seconds workers blocked for work *)
  domain_pivots : int array;  (** simplex pivots per domain *)
}

val serial_par_stats : par_stats
(** The trivial stats of a one-domain run with no search: placeholder
    for results synthesized without entering the tree search. *)

type incumbent_source =
  | No_incumbent
  | Heuristic  (** seeded by the pre-tree diving heuristic *)
  | Rounding  (** the per-node nearest-integer rounding *)
  | Node_integral  (** a node relaxation solved integral *)

val incumbent_source_to_string : incumbent_source -> string

type pseudocosts
(** Immutable snapshot of the branching pseudocost statistics merged
    across worker domains — the per-variable up/down objective
    degradation averages the tree search learns. A snapshot from one
    solve can seed the next solve of the {e same} problem (see
    {!solve}'s [?warm_pc]), which is how a warm-start cache amortizes
    branching knowledge across repeat requests. *)

val empty_pseudocosts : pseudocosts
(** The untrained snapshot (also what synthesized results carry). *)

val pseudocosts_observations : pseudocosts -> int
(** Total branching observations recorded (up and down combined);
    [0] for {!empty_pseudocosts}. *)

val pseudocosts_export :
  pseudocosts -> float array * int array * float array * int array
(** Plain-data view for persistence:
    [(up_sum, up_count, down_sum, down_count)], one entry per column.
    Arrays are copies. *)

val pseudocosts_import :
  up_sum:float array ->
  up_cnt:int array ->
  dn_sum:float array ->
  dn_cnt:int array ->
  (pseudocosts, string) Stdlib.result
(** Rebuilds a snapshot from {!pseudocosts_export} data. Rejects
    mismatched array lengths, negative observation counts and
    non-finite sums — the validation a persisted cache file needs. *)

type result = {
  status : status;
  solution : float array option;  (** structural values of the incumbent *)
  objective : float option;  (** incumbent objective, user sense *)
  best_bound : float;  (** proved bound on the optimum, user sense *)
  nodes : int;
  simplex_iterations : int;  (** summed across all domains *)
  time : float;  (** wall-clock seconds spent *)
  lp_time : float;
      (** seconds inside node LP solves, summed across domains (may
          exceed [time] when [parallelism > 1]) *)
  max_node_lp_time : float;  (** slowest single node relaxation *)
  lp_stats : Simplex.stats;  (** simplex instrumentation, merged *)
  par : par_stats;  (** parallel-search instrumentation *)
  incumbent_source : incumbent_source;
      (** which mechanism produced the final incumbent *)
  pseudocosts : pseudocosts;
      (** branching statistics trained by this solve, merged across
          domains — feed back via [?warm_pc] on a repeat solve *)
  branches : int;  (** nodes that branched, summed across domains *)
  objective_branches : int;
      (** of [branches], those on a column with a nonzero objective
          coefficient *)
}

val gap : result -> float option
(** Relative gap between incumbent and bound; [None] without incumbent. *)

val solve :
  ?options:options ->
  ?cuts:Cut_pool.t ->
  ?initial:float array * float ->
  ?warm_pc:pseudocosts ->
  ?root_basis:Simplex.basis ->
  Problem.t ->
  result
(** [solve ?options ?cuts ?initial p] explores [p]'s tree. [?cuts] is
    the pool whose {!Cut_pool.root_problem} is [p]; it enables node
    separation (see {!options.node_cut_depth}). [?initial] is a known
    integer-feasible point with its internal (minimization-sense,
    [obj_const]-inclusive) objective — typically {!Heuristics.run}'s
    incumbent — validated against [p] and used to seed the atomic
    incumbent before the root node is solved. [?warm_pc] seeds every
    worker's pseudocost statistics from a previous solve of the same
    problem (silently ignored when the column count differs); seeded
    branching changes the node order, so it is opt-in — the
    [parallelism = 1] determinism contract only covers unseeded
    runs. [?root_basis] is restored at the root node before its LP is
    solved — {!Heuristics.run}'s root optimum on [p], which makes the
    root re-solve take zero pivots; it must be a snapshot taken on [p]
    or on a row prefix of it. *)
