(** Sparse symmetric matrices in compressed-sparse-row form.

    The quadratic placement objective (paper, eq. 1) yields a symmetric
    positive-definite matrix C whose off-diagonal entries are the negated
    clique edge weights and whose diagonal accumulates all incident weights.
    A matrix is assembled either through a mutable {!builder} that
    accepts duplicate coordinate entries (they are summed) and then
    freezes into an immutable CSR {!t} — the reference assembler — or,
    when the same (i, j) stream is assembled again and again, through a
    {!pattern} recorded once by a {!shape} and filled through {!slots}
    and {!seal}. *)

(** Frozen CSR matrix. *)
type t

(** Mutable assembly buffer. *)
type builder

(** [builder n] is an empty builder for an [n]×[n] matrix.  Raises
    [Invalid_argument] if [n] is negative. *)
val builder : int -> builder

(** [add b i j v] adds [v] to entry (i, j).  Symmetry is the caller's
    responsibility: call it for both (i, j) and (j, i), or use
    {!add_sym}. *)
val add : builder -> int -> int -> float -> unit

(** [add_sym b i j v] adds [v] at (i, j) and (j, i); if [i = j] the value
    is added once. *)
val add_sym : builder -> int -> int -> float -> unit

(** [add_diag b i v] adds [v] to the diagonal entry (i, i). *)
val add_diag : builder -> int -> float -> unit

(** [finalize b] sums duplicates, drops explicit zeros and freezes the
    builder into CSR form.  The builder may be reused afterwards. *)
val finalize : builder -> t

(** Frozen symbolic structure of one triplet stream: the merged CSR
    sparsity pattern plus the triplet→slot map.  The placement matrix
    keeps one pattern across every Kraftwerk transformation, so it is
    recorded once and each assembly scatters its values through
    {!slots} and {!seal}. *)
type pattern

(** The recorder of a pattern: it keeps no value and one transient int
    per triplet.  The stream is replayed twice, first {!count}ing each
    triplet's row, then {!place}-ing each (row, column) in the same
    order; {!pattern} merges each row's columns into its slots. *)
type shape

(** [shape n] is an empty recorder for an [n]×[n] pattern. *)
val shape : int -> shape

(** [count sh i] tallies one triplet in row [i]; not after a {!place}. *)
val count : shape -> int -> unit

(** [place sh i j] places the stream's next triplet at (i, j); the first
    call sizes the recorder from the tallies.  A row placed more often
    than counted raises [Invalid_argument]. *)
val place : shape -> int -> int -> unit

(** [pattern sh] is the pattern of the placed stream, with every slot
    value zero: each row's distinct columns, ascending, are its slots,
    and the k-th {!place} maps to the slot of its (i, j).  It takes over
    the recorder's storage, which is then spent.  Raises
    [Invalid_argument] if fewer triplets were placed than counted. *)
val pattern : shape -> pattern

(** The per-triplet view of a pattern, for an assembler that replays its
    triplet stream itself: triplet [k] sits at (i, j) iff its slot
    [s = s_slot.(k)] lies in CSR row i ([s_indptr.(i) <= s <
    s_indptr.(i + 1)]) with [s_indices.(s) = j], and accumulates into
    [s_values.(s)].  Zeroing [s_values] and adding each triplet's value
    in stream order sums every slot in {!finalize}'s order, so {!seal}
    then yields the matrix {!finalize} would have built — the
    allocation-free steady state of the QP assembly, whose per-element
    loop cannot call into this module without boxing every float. *)
type slots = private {
  s_slot : int array;  (** triplet → slot; its length is the stream's *)
  s_indptr : int array;  (** the pattern's CSR row starts (length n + 1) *)
  s_indices : int array;  (** the pattern's CSR column of each slot *)
  s_values : float array;  (** the pattern's value storage, CSR order *)
}

(** [slots pat] is the pattern's per-triplet view (no copy). *)
val slots : pattern -> slots

(** [seal pat] is the matrix of the values currently in the pattern's
    slots: the pattern's own CSR (aliasing its storage, invalidated by
    the next scatter into the same pattern) or, when some slot sums to
    exactly zero, a compacted fresh copy — as {!finalize} drops such
    entries. *)
val seal : pattern -> t

(** [dim m] is the row (= column) count. *)
val dim : t -> int

(** [nnz m] is the number of stored entries. *)
val nnz : t -> int

(** [mul m x y] writes [m * x] into [y].  Large products are row-chunked
    across the {!Parallel} domain pool; each row keeps its sequential
    accumulation order, so the result is bitwise-identical to
    {!mul_seq} for any domain count. *)
val mul : t -> float array -> float array -> unit

(** [mul_seq m x y] is {!mul} pinned to the calling domain — the
    reference sequential product (used by benchmarks and determinism
    tests). *)
val mul_seq : t -> float array -> float array -> unit

(** [mul2 m xa ya xb yb] writes [m * xa] into [ya] and [m * xb] into
    [yb] in one row sweep, row-chunked across the pool exactly like
    {!mul}: each row is read once for both products.  Both outputs are
    bitwise-identical to two {!mul_seq} calls. *)
val mul2 :
  t -> float array -> float array -> float array -> float array -> unit

(** [diagonal m] is a fresh array of the diagonal entries (zero where the
    diagonal is not stored). *)
val diagonal : t -> float array

(** [diagonal_into m d] writes the diagonal into [d] (length {!dim}) —
    the allocation-free {!diagonal} for cached-assembly callers. *)
val diagonal_into : t -> float array -> unit

(** [entry m i j] is the stored value at (i, j), or [0.] if absent.
    Linear in the number of entries of row [i]; intended for tests. *)
val entry : t -> int -> int -> float

(** [is_symmetric ?tol m] checks stored symmetry up to [tol]
    (default [1e-9]); intended for tests. *)
val is_symmetric : ?tol:float -> t -> bool

(** [of_dense a] builds a CSR matrix from a square dense array;
    intended for tests. *)
val of_dense : float array array -> t

(** [to_dense m] expands to a dense array; intended for tests on small
    matrices. *)
val to_dense : t -> float array array
