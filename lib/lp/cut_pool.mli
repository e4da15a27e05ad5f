(** The cut pool: owns every generated cut's lifecycle — deduplication
    (hashed on normalized terms), violation scoring, deterministic
    family-prefixed naming ([cover:0], [lcover:3], [gmi:7] …) and
    activity-based aging — plus the warm-started root separation loop
    that used to live inside [Solver], and a thread-safe activation
    list through which {!Branch_bound} workers share cuts separated at
    tree nodes. *)

type options = {
  rounds : int;  (** root separation rounds, default 3 *)
  max_per_round : int;  (** acceptance cap per separation call, default 50 *)
  max_age : int;
      (** consecutive loose root LP solves before a cut is dropped from
          the LP, default 8; [max_int] disables aging *)
  separators : Separator.t list;
}

val default_options : options

val options :
  ?rounds:int ->
  ?max_per_round:int ->
  ?max_age:int ->
  ?separators:Separator.t list ->
  unit ->
  options

type t

val create : ?options:options -> Problem.t -> t
(** A pool over a base problem (the presolved MIP, cut-free). *)

type root_stats = {
  added : int;  (** cuts accepted across all root rounds *)
  dropped : int;  (** cuts aged out of the LP *)
  by_family : (string * int) list;  (** live accepted cuts per family *)
  lp : Simplex.stats;
  lp_time : float;
  root_basis : Simplex.basis option;
      (** the pre-cut root optimum's basis — valid on the base problem
          independently of accepted cuts, so a later solve of the same
          base can restore it (the warm-start cache's last-good basis) *)
  last_basis : Simplex.basis option;
      (** the basis of the last LP the loop solved to optimality, taken
          on a row prefix of the returned problem (the last round's
          cuts come back basic on their slacks under
          {!Simplex.restore_basis}); [None] when that solve was not
          optimal or aging dropped rows. {!Heuristics.run} starts from
          it. *)
}

val root_loop :
  ?basis:Simplex.basis ->
  ?deadline:float ->
  snk:Mm_obs.Trace.sink ->
  t ->
  Problem.t * root_stats
(** The root cutting-plane loop: solve the relaxation, separate with
    every configured family, accept the best-scoring fresh cuts,
    re-solve warm via [Simplex.create_from ~prefer_dual], repeat up to
    [rounds]. Cuts left loose for [max_age] consecutive solves are
    dropped before the strengthened problem is returned (their hashes
    are forgotten so they may be rediscovered later). Single-threaded;
    call before spawning workers.

    [?basis] replaces the slack basis before the first solve — pass a
    {!root_stats.root_basis} snapshot from a previous run over the same
    base problem and the round-0 LP re-optimizes in a handful of
    pivots instead of a cold two-phase solve. *)

val root_problem : t -> Problem.t
(** The base problem plus surviving root cuts ([root_loop]'s result;
    the base itself beforehand). Node-cut rows are appended after these
    rows, in activation order. *)

val by_family : t -> (string * int) list
(** Live accepted cuts per family, root and node cuts combined. *)

val dropped : t -> int

(** {2 Node-side API}

    Thread-safe. Workers keep their LP equal to
    [root_problem + rows 0..k) ] for a private [k], lazily appending
    rows as the shared activation count grows — the global row order
    makes basis snapshots exchangeable across workers. *)

val node_count : t -> int
(** Current activation count (lock-free read). *)

val rows_from : t -> int -> (string * (int * float) list * float * float) list
(** [rows_from t k] returns activation rows [k .. node_count - 1] in
    order. *)

val node_separate : t -> Problem.t -> float array -> int
(** Separate at a node point with the bound-free families only (cuts
    from bound-dependent families would not be globally valid),
    deduplicate against everything seen, activate the accepted cuts and
    return the new activation count. [p] must be the caller's current
    extended problem. *)
