(** Sparse LU factorization of a simplex basis with product-form eta
    updates and hypersparse triangular solves.

    [factor] runs a right-looking sparse Gaussian elimination with
    Markowitz pivoting (singleton rows/columns eliminated first, then a
    threshold-pivoted Markowitz bump), producing permuted triangular
    factors. Between refactorizations, basis exchanges are absorbed as
    product-form eta vectors appended by {!update}; {!ftran}/{!btran}
    apply the LU solve plus the eta file.

    The svec kernels ({!ftran_sv} and friends) are the primary solve
    interface: on the hypersparse path they run a symbolic reachability
    pass over the elimination-step graph first and then touch only
    predicted nonzeros, falling back to the dense sweep when the
    operand or the predicted pattern is too dense, when the basis is
    below the {!Auto} size floor, or always under the {!Dense} kernel.
    The [float array] entry points are thin adapters kept so dense
    callers keep working unchanged.

    Vector index conventions: [ftran] maps a row-indexed right-hand
    side to a basis-position-indexed solution ([x = B^-1 b]); [btran]
    maps a basis-position-indexed right-hand side to a row-indexed
    solution ([y = B^-T c]). *)

exception Singular
(** The basis is numerically singular (no acceptable pivot, or an eta
    pivot below tolerance). Callers normally repair the basis and
    refactor. *)

type kernel = Auto | Sparse | Dense
    (** Solve-kernel selection. [Auto] (the default) attempts
        hypersparse solves only on bases large enough for the symbolic
        pass to pay for itself (m >= 2048, where the measured win is
        ~10% and growing with m; below it a dense sweep is cheap enough
        that the DFS overhead is a net loss) — with automatic density
        fallback per solve. [Sparse] drops the size floor and attempts
        the symbolic pass whenever the operand density gate passes, for
        A/B measurement and differential testing of the kernel itself;
        [Dense] forces the plain dense sweeps. All three produce
        bit-identical results and pivot trajectories. [Sparse] and
        [Dense] are test hooks, reachable only from code. *)

type t

val factor : ?kernel:kernel -> m:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [factor ~m coliter] factors the [m]x[m] basis whose column at basis
    position [k] is enumerated by [coliter k f] as [f row value].
    Raises {!Singular} when elimination stalls. *)

val ftran_sv : t -> src:Svec.t -> dst:Svec.t -> unit
(** [ftran_sv t ~src ~dst] solves [B x = src]; [src] is row-indexed and
    left unchanged, [dst] receives [x] indexed by basis position with
    its pattern set (or marked dense after a fallback). [src] and [dst]
    must be distinct. *)

val btran_sv : t -> src:Svec.t -> dst:Svec.t -> unit
(** [btran_sv t ~src ~dst] solves [B^T y = src]; [src] is indexed by
    basis position and left unchanged, [dst] receives [y] indexed by
    row. [src] and [dst] must be distinct. *)

val btran_unit_sv : t -> pos:int -> dst:Svec.t -> unit
(** [btran_unit_sv t ~pos ~dst] solves [B^T y = e_pos], i.e. extracts
    row [pos] of the basis inverse — the ideal hypersparse case, a
    single-nonzero right-hand side. *)

val update_sv : t -> pos:int -> alpha:Svec.t -> unit
(** {!update} on a packed [alpha = B^-1 a_entering] (a fresh
    {!ftran_sv} result), building the eta from its nonzeros only. *)

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

val kernel : t -> kernel
(** The kernel this factorization was created with. *)

val sparse_solves : t -> int
(** Solves (ftran/btran/btran_unit) completed on the hypersparse path
    since this factorization. *)

val dense_fallbacks : t -> int
(** Solves that fell back to (or were forced onto) the dense sweep. *)
