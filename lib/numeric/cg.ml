type stats = { iterations : int; residual : float; converged : bool }

(* Jacobi preconditioner: the inverted diagonal of [a].  Hoisted out of
   [solve] so repeated solves against the same matrix (the x/y axes of a
   QP system share assembly, hooks re-solve) compute it once and pass it
   back via [?inv_diag]. *)
let inv_diagonal a =
  let d = Sparse.diagonal a in
  for i = 0 to Sparse.dim a - 1 do
    if d.(i) <= 0. then
      invalid_arg "Cg.solve: non-positive diagonal (matrix not anchored?)";
    d.(i) <- 1. /. d.(i)
  done;
  d

(* Allocation-free variant for cached-assembly callers: writes into
   [out] and reports validity instead of raising, so an assembly can be
   built eagerly and the error surfaced only if someone solves it. *)
let inv_diagonal_into a out =
  let n = Sparse.dim a in
  if Array.length out <> n then
    invalid_arg "Cg.inv_diagonal_into: length mismatch";
  Sparse.diagonal_into a out;
  let ok = ref true in
  for i = 0 to n - 1 do
    if out.(i) <= 0. then ok := false else out.(i) <- 1. /. out.(i)
  done;
  !ok

(* The PCG vectors of one system size.  [x] doubles as the warm start
   and the solution; a caller that solves repeatedly (the placer, every
   transformation) keeps one workspace per axis and allocates nothing
   per solve. *)
type workspace = {
  x : float array;
  b : float array;
  r : float array;
  z : float array;
  p : float array;
  ap : float array;
}

let workspace n =
  let v () = Array.make n 0. in
  { x = v (); b = v (); r = v (); z = v (); p = v (); ap = v () }

let solution w = w.x

let rhs w = w.b

(* Vector kernels kept local to this module: every call into another
   module passes its floats boxed, and these run a few times per CG
   iteration. *)
let[@inline] dot a b n =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let[@inline] axpy alpha x y n =
  for i = 0 to n - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let[@inline] mul_into a b dst n =
  for i = 0 to n - 1 do
    dst.(i) <- a.(i) *. b.(i)
  done

let solve_in ?(tol = 1e-8) ?max_iter ?inv_diag w a =
  let n = Sparse.dim a in
  if Array.length w.x <> n then
    invalid_arg "Cg.solve_in: workspace dimension mismatch";
  let max_iter = match max_iter with Some m -> m | None -> (4 * n) + 50 in
  let inv_diag =
    match inv_diag with
    | Some d ->
      if Array.length d <> n then invalid_arg "Cg.solve: inv_diag length mismatch";
      d
    | None -> inv_diagonal a
  in
  let x = w.x and b = w.b and r = w.r and z = w.z and p = w.p and ap = w.ap in
  Sparse.mul a x r;
  for i = 0 to n - 1 do
    r.(i) <- b.(i) -. r.(i)
  done;
  mul_into inv_diag r z n;
  Array.blit z 0 p 0 n;
  let threshold = tol *. Float.max 1. (sqrt (dot b b n)) in
  let rz = ref (dot r z n) in
  let rnorm = ref (sqrt (dot r r n)) in
  let iters = ref 0 in
  (* Standard PCG recurrence; loop invariant: r = b - a x, z = M⁻¹ r,
     rz = rᵀz. *)
  while !rnorm > threshold && !iters < max_iter do
    Sparse.mul a p ap;
    let pap = dot p ap n in
    if pap <= 0. then (
      (* Numerically lost positive-definiteness; stop with current x. *)
      iters := max_iter)
    else begin
      let alpha = !rz /. pap in
      axpy alpha p x n;
      axpy (-.alpha) ap r n;
      mul_into inv_diag r z n;
      let rz' = dot r z n in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to n - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done;
      rnorm := sqrt (dot r r n);
      incr iters
    end
  done;
  if Obs.Registry.enabled () then begin
    Obs.Registry.observe "cg/iterations" (float_of_int !iters);
    Obs.Registry.observe "cg/residual" !rnorm;
    Obs.Registry.incr "cg/solves"
  end;
  { iterations = !iters; residual = !rnorm; converged = !rnorm <= threshold }

let solve ?tol ?max_iter ?x0 ?inv_diag a b =
  let n = Sparse.dim a in
  if Array.length b <> n then invalid_arg "Cg.solve: rhs length mismatch";
  let w = workspace n in
  (match x0 with Some v -> Array.blit v 0 w.x 0 n | None -> ());
  Array.blit b 0 w.b 0 n;
  let stats = solve_in ?tol ?max_iter ?inv_diag w a in
  (w.x, stats)
