(** Solver knobs as plain data: the subset of {!Mm_lp.Solver.options}
    the CLI exposes as flags and the service accepts per request. One
    record backs both — [mmap solve]/[solve-mps]/[serve] parse flags
    into a [t] (see [bin/solver_flags.ml]) and service requests carry
    an optional [knobs] JSON object decoded by {!of_json} — so a flag
    added here shows up in both surfaces at once. Every default is
    read from {!Mm_lp.Solver.default_options}. *)

type t = {
  parallelism : int;  (** branch-and-bound worker domains *)
  cuts : bool;  (** master cutting-plane switch *)
  cut_rounds : int;
  max_cuts_per_round : int;
  heuristics : bool;  (** GUB diving incumbent *)
  time_limit : float option;
      (** wall-clock budget in seconds for the ILP search; the
          service's request timeout rides this — the solver's
          time-limit path is the cancellation mechanism *)
}

val default : t

val make :
  ?parallelism:int ->
  ?cuts:bool ->
  ?cut_rounds:int ->
  ?max_cuts_per_round:int ->
  ?heuristics:bool ->
  ?time_limit:float ->
  unit ->
  t

val to_solver_options : ?trace:Mm_obs.Trace.t -> t -> Mm_lp.Solver.options
(** The {!Mm_lp.Solver.options} these knobs denote (remaining fields at
    their defaults; [time_limit] lands in [bb.time_limit]). *)

val fingerprint_string : t -> string
(** Canonical rendering of every ILP-shaping field, for warm-cache
    keys. [time_limit] is deliberately excluded: it truncates the
    search without changing the problem, so warm state transfers
    across budgets. *)

val to_json : t -> Mm_obs.Json.t

val of_json : Mm_obs.Json.t -> (t, string) result
(** Decodes a knobs object; absent fields take {!default}s, unknown
    and malformed fields are errors naming the field. [of_json (to_json
    k) = Ok k]. *)
