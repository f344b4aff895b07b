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

(* One axis of a PCG run: its workspace and preconditioner, the scalars
   of the recurrence kept unboxed in [sc] (rᵀz, ‖r‖, the stopping
   threshold) and its iteration count.  Every step below reads and
   writes these in place, so no float crosses a call. *)
type axis = {
  w : workspace;
  inv : float array;
  sc : float array; (* rz; rnorm; threshold *)
  max_iter : int;
  mutable iters : int;
}

let axis ~tol ?max_iter ?inv_diag w a =
  let n = Sparse.dim a in
  if Array.length w.x <> n then
    invalid_arg "Cg.solve_in: workspace dimension mismatch";
  let max_iter = match max_iter with Some m -> m | None -> (4 * n) + 50 in
  let inv =
    match inv_diag with
    | Some d ->
      if Array.length d <> n then invalid_arg "Cg.solve: inv_diag length mismatch";
      d
    | None -> inv_diagonal a
  in
  let bb = ref 0. in
  for i = 0 to n - 1 do
    bb := !bb +. (w.b.(i) *. w.b.(i))
  done;
  let sc = Array.make 3 0. in
  sc.(2) <- tol *. Float.max 1. (sqrt !bb);
  { w; inv; sc; max_iter; iters = 0 }

(* Start the recurrence once [r] holds A·x: r = b − A·x, z = M⁻¹r, p = z.
   Each dot product sums in index order. *)
let start ax =
  let w = ax.w and inv = ax.inv and sc = ax.sc in
  let n = Array.length w.x in
  let rz = ref 0. and rr = ref 0. in
  for i = 0 to n - 1 do
    let r = w.b.(i) -. w.r.(i) in
    let z = inv.(i) *. r in
    w.r.(i) <- r;
    w.z.(i) <- z;
    w.p.(i) <- z;
    rz := !rz +. (r *. z);
    rr := !rr +. (r *. r)
  done;
  sc.(0) <- !rz;
  sc.(1) <- sqrt !rr

let[@inline] active ax = ax.sc.(1) > ax.sc.(2) && ax.iters < ax.max_iter

(* One PCG iteration once [ap] holds A·p.  The updates of x, r and z and
   the two dot products they feed share one loop. *)
let advance ax =
  let w = ax.w and inv = ax.inv and sc = ax.sc in
  let n = Array.length w.x in
  let x = w.x and r = w.r and z = w.z and p = w.p and ap = w.ap in
  let pap = ref 0. in
  for i = 0 to n - 1 do
    pap := !pap +. (p.(i) *. ap.(i))
  done;
  if !pap <= 0. then
    (* Numerically lost positive-definiteness; stop with current x. *)
    ax.iters <- ax.max_iter
  else begin
    let alpha = sc.(0) /. !pap in
    let neg_alpha = -.alpha in
    let rz = ref 0. and rr = ref 0. in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. (alpha *. p.(i));
      let ri = r.(i) +. (neg_alpha *. ap.(i)) in
      let zi = inv.(i) *. ri in
      r.(i) <- ri;
      z.(i) <- zi;
      rz := !rz +. (ri *. zi);
      rr := !rr +. (ri *. ri)
    done;
    let beta = !rz /. sc.(0) in
    sc.(0) <- !rz;
    for i = 0 to n - 1 do
      p.(i) <- z.(i) +. (beta *. p.(i))
    done;
    sc.(1) <- sqrt !rr;
    ax.iters <- ax.iters + 1
  end

let finish ax =
  let rnorm = ax.sc.(1) in
  if Obs.Registry.enabled () then begin
    Obs.Registry.observe "cg/iterations" (float_of_int ax.iters);
    Obs.Registry.observe "cg/residual" rnorm;
    Obs.Registry.incr "cg/solves"
  end;
  { iterations = ax.iters; residual = rnorm; converged = rnorm <= ax.sc.(2) }

let solve_in ?(tol = 1e-8) ?max_iter ?inv_diag w a =
  let ax = axis ~tol ?max_iter ?inv_diag w a in
  Sparse.mul a w.x w.r;
  start ax;
  (* Standard PCG recurrence; loop invariant: r = b - a x, z = M⁻¹ r,
     rz = rᵀz. *)
  while active ax do
    Sparse.mul a w.p w.ap;
    advance ax
  done;
  finish ax

let solve2_in ?(tol = 1e-8) ?max_iter ~inv wx wy a =
  let ax = axis ~tol ?max_iter ~inv_diag:inv wx a in
  let ay = axis ~tol ?max_iter ~inv_diag:inv wy a in
  Sparse.mul2 a wx.x wx.r wy.x wy.r;
  start ax;
  start ay;
  (* The two recurrences are independent; they share each iteration's
     matrix sweep until one stops, then the other runs alone. *)
  let continue = ref true in
  while !continue do
    match (active ax, active ay) with
    | true, true ->
      Sparse.mul2 a wx.p wx.ap wy.p wy.ap;
      advance ax;
      advance ay
    | true, false ->
      Sparse.mul a wx.p wx.ap;
      advance ax
    | false, true ->
      Sparse.mul a wy.p wy.ap;
      advance ay
    | false, false -> continue := false
  done;
  let sx = finish ax in
  let sy = finish ay in
  (sx, sy)

let solve ?tol ?max_iter ?x0 ?inv_diag a b =
  let n = Sparse.dim a in
  if Array.length b <> n then invalid_arg "Cg.solve: rhs length mismatch";
  let w = workspace n in
  (match x0 with Some v -> Array.blit v 0 w.x 0 n | None -> ());
  Array.blit b 0 w.b 0 n;
  let stats = solve_in ?tol ?max_iter ?inv_diag w a in
  (w.x, stats)
