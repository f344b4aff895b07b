(** Preconditioned conjugate gradient for symmetric positive-definite
    systems, as used to solve the extended placement equation
    C·p + d + e = 0 (paper, eq. 3 and §4.1). *)

(** Result of a solve. *)
type stats = {
  iterations : int;  (** CG iterations actually performed *)
  residual : float;  (** final 2-norm of the residual *)
  converged : bool;  (** [residual <= tol * max 1 (norm b)] *)
}

(** [inv_diagonal a] is the inverted diagonal of [a] — the Jacobi
    preconditioner {!solve} uses.  Hoisted out so repeated solves against
    the same matrix can compute it once and pass it back via
    [?inv_diag].  Raises [Invalid_argument] if a diagonal entry is
    non-positive. *)
val inv_diagonal : Sparse.t -> float array

(** [inv_diagonal_into a out] writes the inverted diagonal into [out]
    (length [dim a]) and returns whether every diagonal entry was
    positive.  On [false] the contents of [out] are unusable; callers
    surface the error at solve time — this lets a cached assembly
    compute its preconditioner eagerly without turning an unsolved
    singular system into a build-time failure. *)
val inv_diagonal_into : Sparse.t -> float array -> bool

(** [solve ?tol ?max_iter ?x0 ?inv_diag a b] solves [a x = b] with Jacobi
    (diagonal) preconditioning and returns the solution with its {!stats}.

    [tol] is a relative tolerance on the residual (default [1e-8]);
    [max_iter] defaults to [4 * dim + 50]; [x0] is the warm-start guess
    (default zero — placement transformations warm-start from the previous
    placement, which is what makes later iterations cheap); [inv_diag]
    is a precomputed {!inv_diagonal} (callers are trusted that it matches
    [a]; its length is checked).

    Raises [Invalid_argument] if a diagonal entry is non-positive, since
    the placement matrix is positive definite whenever every connected
    component is anchored by a fixed connection, and
    ["Cg.solve: rhs length mismatch"] when [b] is not of length
    [dim a]. *)
val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:float array ->
  ?inv_diag:float array ->
  Sparse.t ->
  float array ->
  float array * stats

(** The vectors of one PCG solve of a given dimension: the iterate, the
    right-hand side and the four recurrence vectors.  A caller that
    solves the same size repeatedly keeps one per concurrent solve and
    allocates nothing per solve. *)
type workspace

(** [workspace n] is a zeroed workspace for [n]×[n] systems. *)
val workspace : int -> workspace

(** [solution w] is the iterate: write the warm start into it before
    {!solve_in}, read the solution from it afterwards. *)
val solution : workspace -> float array

(** [rhs w] is the right-hand side {!solve_in} reads. *)
val rhs : workspace -> float array

(** [solve_in ?tol ?max_iter ?inv_diag w a] is {!solve} on [a] with the
    right-hand side [rhs w], warm-started from and writing the solution
    into [solution w]: the same recurrence, bitwise-identical results
    and the same errors, with no allocation beyond the returned stats.
    Raises [Invalid_argument] when [w] is not of dimension [dim a]. *)
val solve_in :
  ?tol:float ->
  ?max_iter:int ->
  ?inv_diag:float array ->
  workspace ->
  Sparse.t ->
  stats

(** [solve2_in ?tol ?max_iter ~inv wx wy a] runs the two independent
    solves [solve_in ~inv_diag:inv wx a] and [solve_in ~inv_diag:inv wy
    a] (one matrix, two right-hand sides) side by side and returns
    their stats in that order: the same recurrences, bitwise-identical
    results and the same registry observations per axis.  Each
    iteration computes both products in one {!Sparse.mul2} sweep (one
    read of [a]) and updates each axis's vectors in one fused loop;
    each axis stops on its own threshold and the other carries on
    alone.  Raises [Invalid_argument] as {!solve_in} does. *)
val solve2_in :
  ?tol:float ->
  ?max_iter:int ->
  inv:float array ->
  workspace ->
  workspace ->
  Sparse.t ->
  stats * stats
