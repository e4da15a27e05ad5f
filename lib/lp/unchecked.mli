(** Bounds-unchecked array access for the LP kernels.

    [let open Unchecked in] rebinds [Array.get]/[Array.set], and with
    them the [a.(i)] syntax, to the unchecked primitives for the rest of
    that expression only; every other function of [Stdlib.Array] is
    unchanged. Open it only inside a kernel whose indices all come from
    arrays validated where they entered the solver (DESIGN.md §8):
    never in a parser, a decoder or anything else that reads outside
    input. *)

module Array : sig
  include module type of struct
    include Stdlib.Array
  end

  external get : 'a array -> int -> 'a = "%array_unsafe_get"
  external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
end
