(** The cut pool: owns every generated cut's lifecycle — deduplication
    (hashed on normalized terms), violation scoring, deterministic
    family-prefixed naming ([cover:0], [lcover:3], [gmi:7] …) and
    activity-based aging — plus the warm-started root separation loop
    that used to live inside [Solver], and a thread-safe activation
    list through which {!Branch_bound} workers share cuts separated at
    tree nodes. *)

type t

val create :
  max_age:int -> separators:Separator.t list -> Problem.t -> t
(** A pool over a base problem (the presolved MIP, cut-free) that
    separates with [separators]. A root cut left loose for [max_age]
    consecutive root LP solves is dropped from the LP; [max_int]
    disables aging. *)

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
    a fixed round count. Cuts left loose for [max_age] consecutive solves are
    dropped before the strengthened problem is returned (their hashes
    are forgotten so they may be rediscovered later). Single-threaded;
    call before spawning workers.

    [?basis] replaces the slack basis before the first solve — pass a
    {!root_stats.root_basis} snapshot from a previous run over the same
    base problem and the round-0 LP re-optimizes in a handful of
    pivots instead of a cold two-phase solve. *)

val root_cuts : t -> Separator.cut list
(** The surviving root cuts, in LP row order: after {!root_loop}, the
    rows its returned problem appends to the base. A warm state carries
    them to the next solve of the same base problem. *)

val resume :
  snk:Mm_obs.Trace.sink -> t -> Separator.cut list -> Problem.t * root_stats
(** [resume ~snk t cuts] stands in for {!root_loop} when [cuts] are the
    {!root_cuts} of an earlier pool over the same base problem and
    separators: it registers them as accepted root entries (so node
    separation deduplicates against them), separates nothing, solves
    nothing and returns the base extended by them, in order.
    [added] counts the registered cuts; the LP fields are empty. The
    caller is responsible for [cuts] being valid for the base: they
    prove bounds, and nothing here checks them. *)

val by_family : t -> (string * int) list
(** Live accepted cuts per family, root and node cuts combined. *)

val dropped : t -> int

(** {2 Node-side API}

    Thread-safe. Workers keep their LP equal to the root problem
    ({!root_loop}'s or {!resume}'s result) plus activation rows
    [0..k) for a private [k], lazily appending
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
