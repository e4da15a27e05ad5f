(** High-level solve facade: presolve, root cutting planes (via
    {!Cut_pool} over pluggable {!Separator} families), GUB diving
    heuristics, then branch-and-bound with node-level re-separation.
    This is the entry point the memory mapper uses. *)

type options = {
  presolve : bool;  (** default true *)
  cut_max_age : int;
      (** consecutive loose root LP solves before a root cut is dropped
          (see {!Cut_pool.create}); [max_int] disables aging *)
  separators : Separator.t list;
      (** cut families to run, default {!Separator.default} (knapsack
          covers, sequence-lifted covers, Gomory mixed-integer); [[]]
          switches cutting planes off, root and node *)
  heuristics : bool;
      (** GUB diving/rounding incumbent before the tree, default true *)
  bb : Branch_bound.options;
      (** limits, node-cut gating and the execution settings of the
          whole solve: [parallelism] (tree worker domains) and
          [trace] (the facade records its
          presolve/cuts/heuristic/bb/solve phase spans and cut counters
          on the trace's root sink) *)
}

val default_options : options

val options :
  ?presolve:bool ->
  ?cut_max_age:int ->
  ?separators:Separator.t list ->
  ?heuristics:bool ->
  ?trace:Mm_obs.Trace.t ->
  ?bb:Branch_bound.options ->
  unit ->
  options
(** Builder for {!options}; prefer this over record literals so future
    fields stay non-breaking. Unset labels take their values from
    {!default_options}; [?trace] sets [bb.trace]. *)

val cover_only : options -> options
(** The historical root behavior as a degenerate configuration of
    [options]: knapsack cover cuts only, no aging, no node separation,
    no heuristics — reproduces the pre-pool cut loop pivot for pivot.
    The cut-validity anchor of the differential tests and the cut A/B
    benchmarks. *)

type stats = {
  presolved_from : int * int;  (** columns, rows before presolve *)
  presolved_to : int * int;
  cuts_added : int;  (** cuts accepted by the root loop *)
  node_cuts_added : int;  (** cuts separated at tree nodes *)
  cuts_dropped : int;  (** cuts aged out of the root LP *)
  cuts_by_family : (string * int) list;
      (** live accepted cuts per family ([cover] / [lcover] / [gmi]),
          root and node combined, sorted by family name *)
  heuristic_obj : float option;
      (** objective of the GUB diving incumbent (user sense, original
          variable space), when one was found *)
  heuristic_dives : int;
  lp : Simplex.stats;
      (** simplex instrumentation accumulated across the root cut loop,
          the diving heuristic and the branch-and-bound run (all domains
          merged) *)
  lp_time : float;  (** seconds spent inside LP solves *)
  parallel : Branch_bound.par_stats;
      (** parallel tree-search instrumentation: domains used, nodes
          stolen, idle seconds, per-domain pivot counts *)
  warm_applied : string list;
      (** warm-start components consumed by this solve, in application
          order: ["presolve"], ["basis"] (the pre-cut root basis),
          ["cuts"] (the carried root: its cut rows, and the basis on
          them that the tree's root restores), ["incumbent"] (the
          carried solution, which replaces the dive) and
          ["pseudocosts"]; empty on a cold solve *)
  warm_mismatches : int;
      (** [1] when the [warm] passed in was trained on another problem
          or under other options and was wiped, so this solve ran cold;
          [0] otherwise *)
}

type result = { mip : Branch_bound.result; stats : stats }

(** {2 Warm-start state}

    Repeat solves of the same problem — the mapping service's workload
    — can amortize solver state: the presolve fixpoint, the pre-cut
    root optimum's basis (restored via the same
    {!Simplex.restore_basis} path the cut loop warm restart uses), the
    branching pseudocosts trained by the tree search, and the root the
    last solve ended with — its surviving cuts, its root LP basis and
    its optimal solution. A solve that resumes that root re-registers
    the cuts instead of separating them ({!Cut_pool.resume}) and, when
    the solution is still a feasible integer point of the extended
    problem, seeds the tree with it instead of diving.

    A {!warm} value carries all of this between solves. It is keyed by
    content: {!solve} digests the problem and the options that shape
    what is carried ([presolve], [cut_max_age], the separators,
    [heuristics]) and wipes the state before using any of it when the
    digest differs from the one that trained it ([stats.warm_mismatches]
    and the [warm_mismatch] trace count record it), so a state fed to
    another problem degrades to a cold solve. The digest is computed
    only when a [warm] is passed. Not thread-safe — lease a [warm] to
    one solve at a time. *)

type warm

val warm : unit -> warm
(** A fresh, untrained warm-start state (the first solve fills it). *)

val warm_solves : warm -> int
(** Number of completed solves that re-trained this state. *)

val warm_has_basis : warm -> bool

val warm_to_json : warm -> Mm_obs.Json.t
(** Serializes the plain-data components — digest, solve count,
    original dimensions, root basis, pseudocosts — for cross-process
    cache persistence. The presolve component (a recovery closure) and
    the carried root (whose cuts could not be checked once read back)
    are dropped: the first solve after {!warm_of_json} re-runs presolve
    and the root cut loop, after which basis and pseudocosts apply
    exactly as they would in-process and the root carries again. *)

val warm_of_json : Mm_obs.Json.t -> (warm, string) Stdlib.result
(** Inverse of {!warm_to_json}, validating the digest, array lengths,
    status characters and count signs so a corrupt or hand-edited file
    surfaces as [Error] (the caller degrades to a cold start) rather
    than undefined solver behavior. A state without a digest loads;
    its first solve wipes it as a mismatch. *)

val solve : ?options:options -> ?warm:warm -> Problem.t -> result
(** Solves to proven optimality unless limits are set. The solution in
    [mip.solution] is expressed in the {e original} variable space
    (presolve recovery already applied). [?warm] consumes and re-trains
    warm-start state (see above); [stats.warm_applied] records which
    components were actually used. Warm-started runs may visit a
    different node order than cold runs (same proven objective). *)
