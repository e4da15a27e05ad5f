(** Sparse LU factorization of a simplex basis with product-form eta
    updates.

    [factor] runs a right-looking sparse Gaussian elimination with
    Markowitz pivoting (singleton rows/columns eliminated first, then a
    threshold-pivoted Markowitz bump), producing permuted triangular
    factors. Between refactorizations, basis exchanges are absorbed as
    product-form eta vectors appended by {!update}; {!ftran}/{!btran}
    apply the LU solve plus the eta file as dense sweeps.

    Vector index conventions: [ftran] maps a row-indexed right-hand
    side to a basis-position-indexed solution ([x = B^-1 b]); [btran]
    maps a basis-position-indexed right-hand side to a row-indexed
    solution ([y = B^-T c]). *)

exception Singular
(** The basis is numerically singular (no acceptable pivot, or an eta
    pivot below tolerance). Callers normally repair the basis and
    refactor. *)

type t

val factor : m:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [factor ~m coliter] factors the [m]x[m] basis whose column at basis
    position [k] is enumerated by [coliter k f] as [f row value].
    Raises {!Singular} when elimination stalls. *)

val ftran : t -> src:float array -> dst:float array -> unit
(** [ftran t ~src ~dst] solves [B x = src]; [src] is row-indexed and
    left unchanged, [dst] receives [x] indexed by basis position.
    [src] and [dst] must be distinct arrays of length [m]. *)

val btran : t -> src:float array -> dst:float array -> unit
(** [btran t ~src ~dst] solves [B^T y = src]; [src] is indexed by basis
    position and left unchanged, [dst] receives [y] indexed by row.
    [src] and [dst] must be distinct arrays of length [m]. *)

val btran_unit : t -> pos:int -> dst:float array -> unit
(** [btran_unit t ~pos ~dst] solves [B^T y = e_pos], i.e. extracts row
    [pos] of the basis inverse into the row-indexed [dst]. The squared
    norm of that row is the exact dual steepest-edge weight of basis
    position [pos]; the simplex dual Devex pricing uses it both for
    pivot-row pricing and to detect reference-weight drift. Uses an
    internal scratch for the right-hand side, so [dst] may be any
    length-[m] array distinct from the internals. *)

val update : t -> pos:int -> alpha:float array -> unit
(** [update t ~pos ~alpha] records the basis exchange that replaces the
    column at basis position [pos], where [alpha = B^-1 a_entering] (a
    fresh {!ftran} result). Raises {!Singular} when [alpha.(pos)] is
    too small to pivot on. *)

val eta_count : t -> int
(** Number of eta vectors accumulated since the factorization. *)

val eta_nnz : t -> int
(** Total nonzeros across the eta file. *)

val fill_nnz : t -> int
(** Fill-in entries created during elimination. *)

val basis_nnz : t -> int
(** Nonzeros of the basis matrix that was factored. *)
