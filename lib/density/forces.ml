type t = {
  fx : float array;
  fy : float array;
  scale : float;
  raw_max : float;
  overflow : float;
}

let prewarm ~region ~nx ~ny =
  (* Mirror Grid2.create's pitch computation exactly so the cache key
     matches the density grids the placer builds every iteration. *)
  let hx = Geometry.Rect.width region /. float_of_int nx in
  let hy = Geometry.Rect.height region /. float_of_int ny in
  Numeric.Poisson.prewarm ~rows:ny ~cols:nx ~hx ~hy

type buffers = {
  balanced : Geometry.Grid2.t;
  field : Numeric.Poisson.field;
  bfx : float array;
  bfy : float array;
}

let buffers region ~nx ~ny ~n_movable =
  {
    balanced = Geometry.Grid2.create region ~nx ~ny;
    field =
      {
        Numeric.Poisson.rows = ny;
        cols = nx;
        fx = Array.make (nx * ny) 0.;
        fy = Array.make (nx * ny) 0.;
      };
    bfx = Array.make n_movable 0.;
    bfy = Array.make n_movable 0.;
  }

let[@inline] clamp_int (v : int) lo hi = if v < lo then lo else if v > hi then hi else v

let[@inline] clamp_float (v : float) lo hi = if v < lo then lo else if v > hi then hi else v

let at_cells ?buffers:bufs (c : Netlist.Circuit.t) (p : Netlist.Placement.t)
    ~demand ~var_of_cell ~n_movable ~k_param ?extra () =
  let nx = Geometry.Grid2.nx demand and ny = Geometry.Grid2.ny demand in
  let region = c.Netlist.Circuit.region in
  let b =
    match bufs with
    | Some b ->
      if
        Geometry.Grid2.nx b.balanced <> nx
        || Geometry.Grid2.ny b.balanced <> ny
        || Array.length b.bfx <> n_movable
      then invalid_arg "Forces.at_cells: buffers do not match";
      b
    | None -> buffers region ~nx ~ny ~n_movable
  in
  let grid = Density_map.balance ?extra ~out:b.balanced demand in
  let hx = Geometry.Grid2.dx grid and hy = Geometry.Grid2.dy grid in
  let field =
    Numeric.Poisson.fft_force_field ~out:b.field ~rows:ny ~cols:nx ~hx ~hy
      (Geometry.Grid2.values grid)
  in
  let ffx = field.Numeric.Poisson.fx and ffy = field.Numeric.Poisson.fy in
  let fx = b.bfx and fy = b.bfy in
  (* Bilinear reads of both field components on the bin-centre lattice —
     Grid2.sample's arithmetic, inlined so that a cell costs no call and
     shares its stencil between the two components. *)
  let x0 = region.Geometry.Rect.x_lo and y0 = region.Geometry.Rect.y_lo in
  let cells = c.Netlist.Circuit.cells in
  let px = p.Netlist.Placement.x and py = p.Netlist.Placement.y in
  for i = 0 to Array.length cells - 1 do
    let id = cells.(i).Netlist.Cell.id in
    let v = var_of_cell.(id) in
    if v >= 0 then begin
      let sx = ((px.(id) -. x0) /. hx) -. 0.5 in
      let sy = ((py.(id) -. y0) /. hy) -. 0.5 in
      let ix0 = clamp_int (int_of_float (Float.floor sx)) 0 (nx - 1) in
      let iy0 = clamp_int (int_of_float (Float.floor sy)) 0 (ny - 1) in
      let ix1 = clamp_int (ix0 + 1) 0 (nx - 1) in
      let iy1 = clamp_int (iy0 + 1) 0 (ny - 1) in
      let tx = clamp_float (sx -. float_of_int ix0) 0. 1. in
      let ty = clamp_float (sy -. float_of_int iy0) 0. 1. in
      let i00 = (iy0 * nx) + ix0 and i10 = (iy0 * nx) + ix1 in
      let i01 = (iy1 * nx) + ix0 and i11 = (iy1 * nx) + ix1 in
      let top = ffx.(i00) +. (tx *. (ffx.(i10) -. ffx.(i00))) in
      let bot = ffx.(i01) +. (tx *. (ffx.(i11) -. ffx.(i01))) in
      fx.(v) <- top +. (ty *. (bot -. top));
      let top = ffy.(i00) +. (tx *. (ffy.(i10) -. ffy.(i00))) in
      let bot = ffy.(i01) +. (tx *. (ffy.(i11) -. ffy.(i01))) in
      fy.(v) <- top +. (ty *. (bot -. top))
    end
  done;
  (* Normalise by the field maximum over the whole grid, not over cell
     centres: at the §4.2 initial placement every cell sits at the region
     centre where the field vanishes by symmetry, and dividing by that
     near-zero maximum would amplify numerical noise into full-strength
     forces.  The grid maximum still bounds every cell force by the
     K·(W+H) reference and decays as the density flattens. *)
  let raw_max = Numeric.Poisson.max_magnitude field in
  let target =
    k_param *. (Geometry.Rect.width region +. Geometry.Rect.height region)
  in
  let scale = if raw_max > 0. then target /. raw_max else 0. in
  (* The density field points *away from* dense regions for positive
     density, i.e. it already repels; entering e in C·p + d + e = 0 a
     repelling force must appear with opposite sign (the solve moves p
     against +e).  Negate here so callers just accumulate. *)
  for v = 0 to n_movable - 1 do
    fx.(v) <- -.(scale *. fx.(v));
    fy.(v) <- -.(scale *. fy.(v))
  done;
  { fx; fy; scale; raw_max; overflow = Density_map.overflow c demand }
