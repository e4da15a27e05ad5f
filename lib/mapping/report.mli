(** Human-readable reports of mapping outcomes. *)

val assignment_summary :
  ?port_model:Preprocess.port_model ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  Global_ilp.assignment ->
  string
(** One line per bank type: segments assigned, ports and bits consumed
    against the budget (port charges per the chosen model). *)

val placement_table :
  Mm_arch.Board.t -> Mm_design.Design.t -> Detailed.t -> string
(** Instance-by-instance placement listing (segment, fragment kind,
    configuration, words, ports, offset). *)

val cost_breakdown :
  ?weights:Cost.weights ->
  ?access_model:Cost.access_model ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  Global_ilp.assignment ->
  string
(** Latency / pin-delay / pin-I/O cost per segment and the weighted
    total (the Section 4.1.3 objective). *)

val lifetime_chart : Mm_design.Design.t -> string
(** ASCII Gantt chart of segment lifetimes (empty string when the design
    carries no lifetime information). *)

val lp_core_summary : Mm_lp.Solver.result -> string
(** One-line rendering of the solver's LP-core instrumentation: nodes,
    pivots, refactorizations, eta/fill/basis gauges, LP time, columns
    priced by a dot product (plus per-phase pivot seconds when the
    solve was traced), the cuts-by-family breakdown and where the
    incumbent came from. *)

val solver_config : Mm_lp.Solver.options -> string
(** One-line echo of the MIP configuration (cut families, rounds,
    aging, node-cut gating, heuristics, parallelism) so a
    report is self-describing under CLI flag changes. *)

val outcome : Mm_arch.Board.t -> Mm_design.Design.t -> Mapper.outcome -> string
(** Full report: summary, costs, placements, timing, LP-core stats. *)

(** {2 Structured reports}

    The machine-readable view of an outcome. [mmap solve --json] and
    every [mmap serve] response body are both {!to_json} of the same
    value, so the CLI and the service share one wire format (decoded by
    [Mm_service.Request.report_of_json]). *)

type t
(** A mapping outcome bound to the board and design it was computed
    for — everything needed to render either the text report or the
    JSON wire format. *)

val of_outcome : Mm_arch.Board.t -> Mm_design.Design.t -> Mapper.outcome -> t

val render : t -> string
(** The full text report ({!outcome} of the bound arguments). *)

val to_json : t -> Mm_obs.Json.t
(** The wire format: method, objective, status, best bound, per-attempt
    retry history, timing, LP-core counters (including
    [warm_applied]), fragmentation, instances used, the
    segment-to-bank-type assignment and the placement list. *)
