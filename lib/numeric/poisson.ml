type field = { rows : int; cols : int; fx : float array; fy : float array }

let check_size ~rows ~cols density name =
  if rows <= 0 || cols <= 0 then invalid_arg (name ^ ": empty grid");
  if Array.length density <> rows * cols then invalid_arg (name ^ ": size mismatch")

let two_pi = 2. *. Float.pi

let direct_force_field ~rows ~cols ~hx ~hy density =
  check_size ~rows ~cols density "Poisson.direct_force_field";
  let fx = Array.make (rows * cols) 0. in
  let fy = Array.make (rows * cols) 0. in
  let cell_area = hx *. hy in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let ax = ref 0. and ay = ref 0. in
      for r' = 0 to rows - 1 do
        for c' = 0 to cols - 1 do
          if r <> r' || c <> c' then begin
            let d = density.((r' * cols) + c') in
            if d <> 0. then begin
              let dx = float_of_int (c - c') *. hx in
              let dy = float_of_int (r - r') *. hy in
              let r2 = (dx *. dx) +. (dy *. dy) in
              ax := !ax +. (d *. dx /. r2);
              ay := !ay +. (d *. dy /. r2)
            end
          end
        done
      done;
      fx.((r * cols) + c) <- !ax *. cell_area /. two_pi;
      fy.((r * cols) + c) <- !ay *. cell_area /. two_pi
    done
  done;
  { rows; cols; fx; fy }

(* FFT evaluation.

   Eq. (9) is a linear convolution of the density with two real force
   kernels.  Zero-padding the density to P×Q ≥ 2R×2C and storing the
   kernels at wrapped offsets makes the cyclic convolution on the padded
   grid equal the linear one on the original grid, so this is the
   open-boundary operator itself and agrees with [direct_force_field] to
   machine precision.  Two structural redundancies are exploited:

   1. the density and both kernels are real, so their spectra are
      Hermitian — only the half plane v ≤ Q/2 is stored, computed with
      real-input FFTs of half the butterfly count, and the row passes
      run only over the R occupied rows of the padded grid;
   2. the two inverse transforms pack into one: with Z = F̂x + i·F̂y, a
      single complex inverse yields fx as the real part and fy as the
      imaginary part.

   Kernel spectra depend only on the grid geometry (rows, cols, hx, hy),
   not on the density, so the Kraftwerk loop — which evaluates the same
   grid every iteration — pays kernel construction and the kernel FFTs
   once.  Mutable scratch lives in domain-local storage keyed by padded
   geometry, so concurrent jobs on different domains never share buffers
   and a fixed-grid loop stops allocating after its first call. *)

(* Half-plane Hermitian kernel spectra, stored as prows × hw planes. *)
type kernel = {
  prows : int;
  pcols : int;
  hw : int;  (* pcols/2 + 1: stored half-plane width *)
  kxr : float array;  (* prows × hw *)
  kxi : float array;
  kyr : float array;
  kyi : float array;
}

let kernel_cache : (int * int * float * float, kernel) Hashtbl.t =
  Hashtbl.create 4

let kernel_cache_lock = Mutex.create ()

let kernel_cache_limit = 8

let kernel_cache_hits = ref 0

let kernel_cache_misses = ref 0

let clear_kernel_cache () =
  Mutex.lock kernel_cache_lock;
  Hashtbl.reset kernel_cache;
  kernel_cache_hits := 0;
  kernel_cache_misses := 0;
  Mutex.unlock kernel_cache_lock

let kernel_cache_stats () = (!kernel_cache_hits, !kernel_cache_misses)

(* Per-domain reusable planes for one padded geometry. *)
type workspace = {
  w_dr : float array;  (* prows × hw: density half spectrum *)
  w_di : float array;
  w_zr : float array;  (* prows × pcols: packed dual inverse plane *)
  w_zi : float array;
}

let workspace_key : (int * int, workspace) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let workspace ~prows ~pcols =
  let tbl = Domain.DLS.get workspace_key in
  match Hashtbl.find_opt tbl (prows, pcols) with
  | Some w -> w
  | None ->
    if Hashtbl.length tbl >= 4 then Hashtbl.reset tbl;
    let hw = (pcols / 2) + 1 in
    let w =
      {
        w_dr = Array.make (prows * hw) 0.;
        w_di = Array.make (prows * hw) 0.;
        w_zr = Array.make (prows * pcols) 0.;
        w_zi = Array.make (prows * pcols) 0.;
      }
    in
    Hashtbl.replace tbl (prows, pcols) w;
    w

(* Small per-domain scratch pairs (rfft packing, column gathers), keyed
   by length, so jobs on different worker domains never share one. *)
let pair_key : (int, float array * float array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let scratch_pair len =
  let tbl = Domain.DLS.get pair_key in
  match Hashtbl.find_opt tbl len with
  | Some p -> p
  | None ->
    if Hashtbl.length tbl >= 8 then Hashtbl.reset tbl;
    let p = (Array.make len 0., Array.make len 0.) in
    Hashtbl.replace tbl len p;
    p

(* Column FFTs are the cache-hostile passes: one column of a row-major
   plane touches one float per row-sized stride, so a column-at-a-time
   gather wastes 7/8 of every cache line.  [col_batch] columns are
   gathered, transformed and scattered together instead — each plane
   cache line is used fully — and since every column's transform is the
   same independent operation, results are bitwise those of the
   column-at-a-time loop for any batch width. *)
let col_batch = 8

let batched_col_fft cp ~inverse ~prows ~width ~re ~im =
  let colr, coli = scratch_pair (col_batch * prows) in
  let v = ref 0 in
  while !v < width do
    let w = Stdlib.min col_batch (width - !v) in
    for u = 0 to prows - 1 do
      let base = (u * width) + !v in
      for k = 0 to w - 1 do
        colr.((k * prows) + u) <- re.(base + k);
        coli.((k * prows) + u) <- im.(base + k)
      done
    done;
    for k = 0 to w - 1 do
      Fft.cfft cp ~inverse colr coli (k * prows)
    done;
    for u = 0 to prows - 1 do
      let base = (u * width) + !v in
      for k = 0 to w - 1 do
        re.(base + k) <- colr.((k * prows) + u);
        im.(base + k) <- coli.((k * prows) + u)
      done
    done;
    v := !v + w
  done

(* Forward half-spectrum transform of a real [src_rows × src_cols] grid
   zero-extended to [prows × pcols]: real-input FFTs over the occupied
   rows only, then one complex FFT down each of the hw stored columns. *)
let forward_real ~prows ~pcols ~hw ~src ~src_rows ~src_cols ~dr ~di =
  let rp = Fft.rplan pcols in
  let cp = Fft.plan prows in
  let m = pcols / 2 in
  let zre, zim = scratch_pair m in
  for r = 0 to src_rows - 1 do
    Fft.rfft_into rp ~src ~soff:(r * src_cols) ~count:src_cols ~outr:dr
      ~outi:di ~ooff:(r * hw) ~zre ~zim
  done;
  if src_rows < prows then begin
    Array.fill dr (src_rows * hw) ((prows - src_rows) * hw) 0.;
    Array.fill di (src_rows * hw) ((prows - src_rows) * hw) 0.
  end;
  batched_col_fft cp ~inverse:false ~prows ~width:hw ~re:dr ~im:di

let build_kernel ~rows ~cols ~hx ~hy =
  let prows = Fft.next_pow2 (2 * rows) in
  let pcols = Fft.next_pow2 (2 * cols) in
  let hw = (pcols / 2) + 1 in
  let n = prows * pcols in
  let cell_area = hx *. hy in
  (* Force kernels indexed by offset (dr, dc), negative offsets wrapped
     to the far end of the padded grid. *)
  let k = Array.make n 0. in
  let fill component =
    Array.fill k 0 n 0.;
    for dr = -(rows - 1) to rows - 1 do
      for dc = -(cols - 1) to cols - 1 do
        if dr <> 0 || dc <> 0 then begin
          let dx = float_of_int dc *. hx in
          let dy = float_of_int dr *. hy in
          let r2 = (dx *. dx) +. (dy *. dy) in
          let idx_r = if dr >= 0 then dr else prows + dr in
          let idx_c = if dc >= 0 then dc else pcols + dc in
          let v = (if component = `X then dx else dy) /. r2 *. cell_area /. two_pi in
          k.((idx_r * pcols) + idx_c) <- v
        end
      done
    done
  in
  let spectrum () =
    let sr = Array.make (prows * hw) 0. and si = Array.make (prows * hw) 0. in
    forward_real ~prows ~pcols ~hw ~src:k ~src_rows:prows ~src_cols:pcols
      ~dr:sr ~di:si;
    (sr, si)
  in
  fill `X;
  let kxr, kxi = spectrum () in
  fill `Y;
  let kyr, kyi = spectrum () in
  { prows; pcols; hw; kxr; kxi; kyr; kyi }

let kernel ~rows ~cols ~hx ~hy =
  let key = (rows, cols, hx, hy) in
  Mutex.lock kernel_cache_lock;
  match Hashtbl.find_opt kernel_cache key with
  | Some rk ->
    incr kernel_cache_hits;
    Mutex.unlock kernel_cache_lock;
    Obs.Registry.incr "poisson/kernel_cache_hits";
    rk
  | None ->
    incr kernel_cache_misses;
    Mutex.unlock kernel_cache_lock;
    Obs.Registry.incr "poisson/kernel_cache_misses";
    let rk = build_kernel ~rows ~cols ~hx ~hy in
    Mutex.lock kernel_cache_lock;
    if Hashtbl.length kernel_cache >= kernel_cache_limit then
      Hashtbl.reset kernel_cache;
    Hashtbl.replace kernel_cache key rk;
    Mutex.unlock kernel_cache_lock;
    rk

let prewarm ~rows ~cols ~hx ~hy = ignore (kernel ~rows ~cols ~hx ~hy)

let fft_force_field ?out ~rows ~cols ~hx ~hy density =
  check_size ~rows ~cols density "Poisson.fft_force_field";
  let rk = kernel ~rows ~cols ~hx ~hy in
  let prows = rk.prows and pcols = rk.pcols and hw = rk.hw in
  let w = workspace ~prows ~pcols in
  let dr = w.w_dr and di = w.w_di and zr = w.w_zr and zi = w.w_zi in
  forward_real ~prows ~pcols ~hw ~src:density ~src_rows:rows ~src_cols:cols
    ~dr ~di;
  let kxr = rk.kxr and kxi = rk.kxi in
  let kyr = rk.kyr and kyi = rk.kyi in
  let half = pcols / 2 in
  (* Pack Z = F̂x + i·F̂y.  Stored half plane, then the mirrored half
     re-derived from the Hermitian symmetry of D̂·K̂ — recomputing eight
     multiplies beats streaming four extra planes.  Both halves only
     read dr/di and write disjoint slots of the row, so one pass fills
     a whole Z row while it is hot in cache. *)
  for u = 0 to prows - 1 do
    let ko = u * hw and zo = u * pcols in
    for v = 0 to half do
      let drv = dr.(ko + v) and div = di.(ko + v) in
      let xr = kxr.(ko + v) and xi = kxi.(ko + v) in
      let yr = kyr.(ko + v) and yi = kyi.(ko + v) in
      let pxr = (drv *. xr) -. (div *. xi) in
      let pxi = (drv *. xi) +. (div *. xr) in
      let pyr = (drv *. yr) -. (div *. yi) in
      let pyi = (drv *. yi) +. (div *. yr) in
      zr.(zo + v) <- pxr -. pyi;
      zi.(zo + v) <- pxi +. pyr
    done;
    let u' = if u = 0 then 0 else prows - u in
    let ko = u' * hw in
    for v = half + 1 to pcols - 1 do
      let v' = pcols - v in
      let drv = dr.(ko + v') and div = di.(ko + v') in
      let xr = kxr.(ko + v') and xi = kxi.(ko + v') in
      let yr = kyr.(ko + v') and yi = kyi.(ko + v') in
      let pxr = (drv *. xr) -. (div *. xi) in
      let pxi = (drv *. xi) +. (div *. xr) in
      let pyr = (drv *. yr) -. (div *. yi) in
      let pyi = (drv *. yi) +. (div *. yr) in
      (* Z(u,v) = conj(F̂x(u',v')) + i·conj(F̂y(u',v')) *)
      zr.(zo + v) <- pxr +. pyi;
      zi.(zo + v) <- -.pxi +. pyr
    done
  done;
  let cp = Fft.plan prows in
  let cpc = Fft.plan pcols in
  batched_col_fft cp ~inverse:true ~prows ~width:pcols ~re:zr ~im:zi;
  let f =
    match out with
    | Some f ->
      if f.rows <> rows || f.cols <> cols
         || Array.length f.fx <> rows * cols
         || Array.length f.fy <> rows * cols
      then invalid_arg "Poisson.fft_force_field: out size mismatch";
      f
    | None ->
      { rows; cols; fx = Array.make (rows * cols) 0.;
        fy = Array.make (rows * cols) 0. }
  in
  (* Inverse row pass over the needed rows only, in place, then unpack:
     fx is the real part of Z, fy the imaginary part. *)
  for r = 0 to rows - 1 do
    Fft.cfft cpc ~inverse:true zr zi (r * pcols);
    Array.blit zr (r * pcols) f.fx (r * cols) cols;
    Array.blit zi (r * pcols) f.fy (r * cols) cols
  done;
  f

let sor_potential ~rows ~cols ~hx ~hy ?(omega = 1.8) ?(tol = 1e-7) ?(max_iter = 10_000)
    density =
  check_size ~rows ~cols density "Poisson.sor_potential";
  let phi = Array.make (rows * cols) 0. in
  let hx2 = hx *. hx and hy2 = hy *. hy in
  (* 5-point stencil of ∇²Φ = D with Φ = 0 outside the grid. *)
  let denom = 2. *. ((1. /. hx2) +. (1. /. hy2)) in
  let iter = ref 0 in
  let delta = ref Float.infinity in
  while !delta > tol && !iter < max_iter do
    delta := 0.;
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let get rr cc =
          if rr < 0 || rr >= rows || cc < 0 || cc >= cols then 0.
          else phi.((rr * cols) + cc)
        in
        let i = (r * cols) + c in
        let sum =
          ((get r (c - 1) +. get r (c + 1)) /. hx2)
          +. ((get (r - 1) c +. get (r + 1) c) /. hy2)
        in
        let gs = (sum -. density.(i)) /. denom in
        let updated = phi.(i) +. (omega *. (gs -. phi.(i))) in
        let d = Float.abs (updated -. phi.(i)) in
        if d > !delta then delta := d;
        phi.(i) <- updated
      done
    done;
    incr iter
  done;
  phi

let max_magnitude f =
  (* Track the maximum *squared* magnitude and take one sqrt at the end;
     sqrt is monotone, so this is exact (and bitwise-identical for the
     maximising bin). *)
  let acc = ref 0. in
  for i = 0 to Array.length f.fx - 1 do
    let m2 = (f.fx.(i) *. f.fx.(i)) +. (f.fy.(i) *. f.fy.(i)) in
    if m2 > !acc then acc := m2
  done;
  sqrt !acc
