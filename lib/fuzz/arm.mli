(** One configuration arm of the differential matrix.

    Every arm must prove the same objective and status on every
    instance; a disagreement between any arm and the reference is a
    solver bug by construction. The matrix spans [parallelism] (1, 2,
    4), the cut configuration (full pool, cuts off, the
    {!Mm_lp.Solver.cover_only} baseline) and warm vs cold starts, with
    one serial and one parallel warm arm. *)

type cuts_mode = Full | Off | Baseline

type t = {
  name : string;
  parallelism : int;
  cuts : cuts_mode;
  warm : bool;
      (** solve twice through one {!Mm_lp.Solver.warm} state and report
          the second (warm-started) result *)
}

val reference : t
(** The anchor arm every other arm is compared against: serial, full
    cut pool, cold — the production default. *)

val matrix : t list
(** The non-reference arms, in rotation order. A campaign runs the
    reference plus a per-case rotating subset, so all arms accumulate
    coverage across a few thousand cases without solving every instance
    under every arm. *)

val solver_options : ?time_limit:float -> t -> Mm_lp.Solver.options

val solve : ?time_limit:float -> t -> Mm_lp.Problem.t -> Mm_lp.Solver.result
(** Solves under this arm's configuration; for a [warm] arm this is two
    chained solves through one warm state, returning the second. *)
