(** Uniform interface over the ILP formulations of the mapping problem.

    {!Global_ilp}, {!Complete_ilp} and {!Detailed_ilp} all follow the
    same shape — build a {!Mm_lp.Problem.t} from a mapping context,
    hand it to {!Mm_lp.Solver.solve}, then decode the 0/1 vector — and
    used to triplicate the timing and status-decoding glue. Each now
    exposes a first-class module of type {!S}; {!Mapper} and the bench
    harness dispatch through {!solve} instead of pattern-matching per
    method. *)

type assignment = int array
(** [a.(d)] is the bank-type index segment [d] is mapped to
    (re-exported as {!Global_ilp.assignment}). *)

type ctx = {
  weights : Cost.weights;
  access_model : Cost.access_model;
  port_model : Preprocess.port_model option;
      (** [None] lets {!Preprocess.coeffs} pick its default *)
  arbitration : bool;  (** global formulation only *)
  forbidden : assignment list;  (** no-good cuts; global formulation only *)
  disaggregated_linking : bool;  (** complete formulation only *)
  assignment : assignment option;  (** detailed formulation input *)
  type_index : int option;  (** detailed formulation input *)
  symmetry_breaking : bool;  (** detailed formulation only *)
  board : Mm_arch.Board.t;
  design : Mm_design.Design.t;
}
(** One context covers every formulation; fields a formulation does not
    understand are ignored by its [build]. *)

val ctx :
  ?weights:Cost.weights ->
  ?access_model:Cost.access_model ->
  ?port_model:Preprocess.port_model ->
  ?arbitration:bool ->
  ?forbidden:assignment list ->
  ?disaggregated_linking:bool ->
  ?assignment:assignment ->
  ?type_index:int ->
  ?symmetry_breaking:bool ->
  Mm_arch.Board.t ->
  Mm_design.Design.t ->
  ctx
(** Builder with the historical defaults ([Cost.default_weights],
    [Cost.Uniform], no arbitration, no cuts, symmetry breaking on). *)

module type S = sig
  type solution

  val name : string
  (** Short label ("global", "complete", "detailed") used in error
      messages and bench output. *)

  val supports_forbidden : bool
  (** Whether [build] honours [ctx.forbidden] no-good cuts — drives the
      mapper's retry-vs-fail decision after a detailed failure. *)

  val build : ctx -> (Mm_lp.Problem.t * (float array -> solution), string) result
  (** Builds the ILP and returns it with its solution reader. [Error]
      carries a human-readable reason the model cannot be built (e.g. a
      segment that fits no bank type). *)
end

type 's t = (module S with type solution = 's)

type stats = {
  ilp : Mm_lp.Solver.result;
  build_seconds : float;
  solve_seconds : float;
}

type error =
  | Build_failed of string  (** the model could not be built *)
  | Ilp_infeasible
  | Ilp_limit  (** solver hit a limit before an incumbent *)

val solve_built :
  ?solver_options:Mm_lp.Solver.options ->
  ?warm:Mm_lp.Solver.warm ->
  build_seconds:float ->
  Mm_lp.Problem.t ->
  (float array -> 's) ->
  ('s * stats, error * stats option) result
(** The shared solve-and-decode tail: run the MIP solver, time it, and
    either decode the incumbent or classify the failure. Exposed for
    callers that need the raw build artifacts (e.g. {!Complete_ilp}
    reporting its variable counts) yet want the common glue. *)

val solve :
  's t ->
  ?solver_options:Mm_lp.Solver.options ->
  ?warm:Mm_lp.Solver.warm ->
  ctx ->
  ('s * stats, error * stats option) result
(** [solve (module F) ctx] = [F.build] + {!solve_built}. The build is
    traced as the [build] span on the root sink of the solver options'
    trace, beside the solver's own [solve] span. [?warm] is
    handed straight to {!Mm_lp.Solver.solve} — only pass state trained
    on the {e same} built problem (same board, design and knobs, no
    no-good cuts). *)
