(** Sparse symmetric matrices in compressed-sparse-row form.

    The quadratic placement objective (paper, eq. 1) yields a symmetric
    positive-definite matrix C whose off-diagonal entries are the negated
    clique edge weights and whose diagonal accumulates all incident weights.
    Matrices are assembled through a mutable {!builder} that accepts
    duplicate coordinate entries (they are summed) and then frozen into an
    immutable CSR {!t} for fast matrix-vector products. *)

(** Frozen CSR matrix. *)
type t

(** Mutable assembly buffer. *)
type builder

(** [builder ?capacity n] is an empty builder for an [n]×[n] matrix with
    room for [capacity] triplets (default 16) before it starts doubling.
    Raises [Invalid_argument] if [n] or [capacity] is negative. *)
val builder : ?capacity:int -> int -> builder

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

(** Frozen symbolic structure of one builder state: the merged CSR
    sparsity pattern plus the triplet→slot permutation (in {!finalize}'s
    exact accumulation order).  The placement matrix keeps the same
    pattern across every Kraftwerk transformation — only the values
    change — so the sort-and-dedup of {!finalize} is paid once and each
    later iteration scatters its values through {!slots} and {!seal}
    instead. *)
type pattern

(** [compile b] performs one finalize-equivalent pass, returning the
    frozen pattern together with the assembled matrix.  The matrix is
    bitwise-identical to [finalize b] and, like {!seal}'s, aliases the
    pattern's storage.  The pattern shares no storage with [b]. *)
val compile : builder -> pattern * t

(** The per-triplet view of a pattern, for an assembler that replays its
    triplet stream itself instead of going through a {!builder}:
    triplet [k] of the compiled stream sits at (i, j) iff its slot
    [s = s_slot.(k)] lies in CSR row i ([s_indptr.(i) <= s <
    s_indptr.(i + 1)]) with [s_indices.(s) = j], and accumulates into
    [s_values.(s)].  Zeroing [s_values] and adding each triplet's value
    in stream order is exactly what {!compile} does, so {!seal} then
    yields the matrix {!finalize} would have built — the allocation-free
    steady state of the QP assembly, whose per-element loop cannot call
    into this module without boxing every float. *)
type slots = private {
  s_len : int;  (** triplet count of the compiled stream *)
  s_slot : int array;  (** triplet → slot *)
  s_indptr : int array;  (** the pattern's CSR row starts (length n + 1) *)
  s_indices : int array;  (** the pattern's CSR column of each slot *)
  s_values : float array;  (** the pattern's value storage, CSR order *)
}

(** [slots pat] is the pattern's per-triplet view (no copy). *)
val slots : pattern -> slots

(** [seal pat] is the matrix of the values currently in the pattern's
    slots: the pattern's own CSR (aliasing its storage, invalidated by
    the next scatter into the same pattern) or, when some slot sums to exactly zero, a compacted fresh copy —
    as {!finalize} drops such entries. *)
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
