(** Linear expressions over integer-indexed decision variables.

    An expression is a sparse mapping from variable index to coefficient
    plus a constant term, stored as sorted parallel arrays. All
    combinators are purely functional; building a large sum with [sum]
    costs one sort of its terms, and no sort at all when they arrive in
    increasing variable order. *)

type t

val zero : t
val const : float -> t
val var : ?coeff:float -> int -> t
(** [var ~coeff i] is [coeff * x_i] (default coefficient 1). *)

val add : t -> t -> t
(** Shared variables add; a variable whose coefficients sum to zero is
    dropped. *)

val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t

val sum : t list -> t
(** [sum es] equals [List.fold_left add zero es] bit for bit: each
    variable's coefficients are added in the order of [es]. *)

val constant : t -> float
val coeff : t -> int -> float
(** Coefficient of a variable (0 if absent). *)

val terms : t -> (int * float) list
(** Non-zero terms in increasing variable order. *)

val to_arrays : t -> int array * float array
(** The non-zero terms as parallel arrays: variables strictly
    increasing, with their coefficients. The arrays may be the
    expression's own storage; never write into them. *)

val num_terms : t -> int
