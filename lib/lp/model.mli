(** Mutable model builder: declare variables, constraints and an
    objective, then freeze into an immutable {!Problem.t}. *)

type t
type var = int
(** Variables are dense indices, usable directly in {!Expr}. *)

type sense = Minimize | Maximize

val create : ?name:string -> unit -> t

val add_var :
  t ->
  ?name:string ->
  ?lb:float ->
  ?ub:float ->
  ?obj:float ->
  Problem.var_kind ->
  var
(** Adds a variable. Defaults: [lb = 0.], [ub = infinity] (for [Binary]
    the bounds are forced to [0, 1]), [obj = 0.]. *)

val binary : t -> ?name:string -> ?obj:float -> unit -> var
(** Shorthand for [add_var t Binary]. *)

val num_vars : t -> int
val var_name : t -> var -> string
(** The name given at {!add_var} time, in O(1). *)

val add_le : t -> ?name:string -> Expr.t -> float -> unit
(** [add_le t e rhs] adds [e <= rhs]. Constant terms of [e] are moved to
    the right-hand side. *)

val add_ge : t -> ?name:string -> Expr.t -> float -> unit
val add_eq : t -> ?name:string -> Expr.t -> float -> unit

val add_range : t -> ?name:string -> float -> Expr.t -> float -> unit
(** [add_range t lo e hi] adds [lo <= e <= hi]. *)

val set_objective : t -> sense -> Expr.t -> unit
(** Sets the objective expression and sense. The effective objective is
    the sum of this expression and the per-variable [obj] coefficients
    given at {!add_var} time — use one style or the other, not both.
    Default: minimize 0. *)

val add_objective_term : t -> Expr.t -> unit
(** Adds to the current objective, preserving the sense. O(1): the terms
    are summed once, by {!to_problem}. *)

val to_problem : t -> Problem.t
(** Freezes the model. The builder remains usable afterwards. *)
