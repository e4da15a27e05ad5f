(** Immutable standard-form problem produced by {!Model.to_problem}.

    No code writes into a problem's [cols] or [rows] arrays, nor into
    the index and coefficient arrays they hold: problems derived from
    one another share them ({!extend_rows} shares every column its new
    rows do not touch, {!Model.to_problem} may share a row with the
    expression it came from). The only in-place writes are the MPS and
    LP parsers patching [col_lb], [col_ub] and [kind] of a problem they
    have just built and not yet returned.

    minimize [obj . x + obj_const] subject to
    [row_lb <= A x <= row_ub] and [col_lb <= x <= col_ub],
    with integrality restrictions given by [kind]. Equality rows have
    [row_lb = row_ub]; one-sided rows use [infinity]/[neg_infinity].
    Maximization problems are normalized to minimization at build time. *)

type var_kind = Continuous | Integer | Binary

type t = {
  ncols : int;
  nrows : int;
  obj : float array;
  obj_const : float;
  maximize_input : bool;
      (** true when the user asked to maximize; [obj] is already negated. *)
  col_lb : float array;
  col_ub : float array;
  kind : var_kind array;
  row_lb : float array;
  row_ub : float array;
  cols : (int array * float array) array;
      (** per column: sorted row indices and matching coefficients *)
  rows : (int array * float array) array;
      (** per row: sorted column indices and matching coefficients *)
  col_names : string array;
  row_names : string array;
}

val num_integer : t -> int
(** Number of columns with kind [Integer] or [Binary]. *)

val col_iter : t -> int -> (int -> float -> unit) -> unit
(** [col_iter p j f] calls [f row coeff] for each structural nonzero of
    column [j], in ascending row order. *)

val row_iter : t -> int -> (int -> float -> unit) -> unit
(** [row_iter p r f] calls [f col coeff] for each structural nonzero of
    row [r], in ascending column order. *)

val col_nnz : t -> int -> int
(** Number of structural nonzeros in column [j]. *)

val row_nnz : t -> int -> int
(** Number of structural nonzeros in row [r]. *)

val nnz : t -> int
(** Total structural nonzeros of the constraint matrix. *)

val row_activity : t -> float array -> int -> float
(** [row_activity p x r] is the value of row [r] under assignment [x]. *)

val integer_columns : t -> int list
(** Columns of kind [Integer] or [Binary], ascending. *)

val internal_objective : t -> float array -> float
(** Objective under assignment [x] in the internal minimization sense,
    [obj_const] included. *)

val objective_value : t -> float array -> float
(** Objective under assignment [x], in the user's sense (negated back when
    the input was a maximization). *)

val max_violation : t -> float array -> float
(** Largest violation of any row or column bound under [x]; 0 when
    feasible (ignoring integrality). *)

val integer_violation : t -> float array -> float
(** Largest distance from integrality over integer columns. *)

val is_feasible : ?tol:float -> t -> float array -> bool
(** Row/bound feasibility and integrality within [tol] (default 1e-6). *)

val validate : t -> (unit, string) result
(** Structural sanity: consistent dimensions, sorted indices, finite
    coefficients, lb <= ub everywhere. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line size summary: columns (integer count), rows, non-zeros. *)

val extend_rows : t -> (string * (int * float) list * float * float) list -> t
(** [extend_rows p rows] appends rows given as
    [(name, terms, lb, ub)]; terms need not be sorted, and zero
    coefficients are dropped. Used to add cutting planes. The result
    equals re-transposing the extended rows, but only the columns the
    new rows touch are copied: the rest, and [obj], the column bounds,
    [kind] and the existing rows, are shared with [p], which is left
    unchanged. *)
