(** The differential check: one case, many configurations, one truth.

    The reference arm's result is validated intrinsically (solution
    feasibility, objective recomputation, brute-force oracle where
    tractable), then every other arm must agree on status and objective.
    Any disagreement is returned as a {!failure} — by the solver's
    determinism contract (any parallelism proves the same objective;
    cuts, LU kernels and warm starts change the path, never the
    optimum) each one is a real bug. *)

type report = {
  skipped : bool;  (** descriptor did not materialize *)
  limit_hit : bool;  (** some solve hit the time limit; not a failure *)
  oracle_checked : bool;
  arms_run : int;  (** reference included *)
}

type failure = {
  case : Case.t;
  arm : string;
      (** offending arm name, or ["oracle"] / ["validation"] for
          intrinsic checks of the reference result *)
  reason : string;
}

val failure_to_string : failure -> string

val run_case :
  ?time_limit:float -> arms:Arm.t list -> Case.t -> (report, failure) result
(** Solves under the reference plus [arms] and cross-checks. A time
    limit (default 60s per solve) turns pathological cases into
    [limit_hit] reports instead of hangs. *)
