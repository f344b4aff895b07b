(** Decimal text of numbers, appended to a [Buffer.t]: the bytes of
    Printf's ["%d"] and ["%.17g"], without the format interpreter and
    without an intermediate string.  [Netlist.Io]'s [.ckt]/[.pos]
    writers and [Obs.Json]'s numbers both print through this module.

    Every function is pure apart from the buffer it is given, so worker
    domains may print concurrently into their own buffers. *)

(** [add_int buf i] appends [Printf.sprintf "%d" i]. *)
val add_int : Buffer.t -> int -> unit

(** [add_float buf v] appends [Printf.sprintf "%.17g" v]: 17 correctly
    rounded significant digits, so the text reads back to the same
    bits, in fixed or exponent form with trailing zeros dropped
    ([-0] for [-0.], [inf], [-inf], [nan] or [-nan] as the C library
    spells them).

    An integer-valued [v] with [|v| < 1e17] is written as an int.
    Other finite normal values take Grisu3's counted mode (Loitsch,
    "Printing Floating-Point Numbers Quickly and Accurately with
    Integers", PLDI 2010): one 64×64-bit product with a cached power of
    ten, and digits with an error bound, all in integer arithmetic.
    When that bound cannot decide the 17th digit (one or two generic
    values in a hundred, and nearly every short dyadic value such as
    [0.5] or [k/16], whose exact digits end before the 17th), and for
    subnormal and non-finite values, the C library's conversion writes
    the text. *)
val add_float : Buffer.t -> float -> unit

(** The cached powers of ten, for the tests: [(k, f, e)] with
    [10^k ≈ f · 2^e], [f] an unsigned 64-bit significand with its top
    bit set, rounded to nearest. *)
val cached_powers : unit -> (int * int64 * int) list
