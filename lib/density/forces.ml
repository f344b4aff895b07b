type solver = Fft | Direct | Sor

type t = {
  fx : float array;
  fy : float array;
  scale : float;
  raw_max : float;
  overflow : float;
}

let field_of_grid ?(solver = Fft) grid =
  let rows = Geometry.Grid2.ny grid and cols = Geometry.Grid2.nx grid in
  let hx = Geometry.Grid2.dx grid and hy = Geometry.Grid2.dy grid in
  let density = Geometry.Grid2.values grid in
  match solver with
  | Fft -> Numeric.Poisson.fft_force_field ~rows ~cols ~hx ~hy density
  | Direct -> Numeric.Poisson.direct_force_field ~rows ~cols ~hx ~hy density
  | Sor ->
    let phi = Numeric.Poisson.sor_potential ~rows ~cols ~hx ~hy density in
    Numeric.Poisson.gradient_force ~rows ~cols ~hx ~hy phi

let prewarm ~region ~nx ~ny =
  (* Mirror Grid2.create's pitch computation exactly so the cache key
     matches the density grids the placer builds every iteration. *)
  let hx = Geometry.Rect.width region /. float_of_int nx in
  let hy = Geometry.Rect.height region /. float_of_int ny in
  Numeric.Poisson.prewarm ~rows:ny ~cols:nx ~hx ~hy

let at_cells (c : Netlist.Circuit.t) (p : Netlist.Placement.t) ~demand
    ~var_of_cell ~n_movable ~k_param ?extra () =
  let nx = Geometry.Grid2.nx demand and ny = Geometry.Grid2.ny demand in
  let field = field_of_grid (Density_map.balance ?extra demand) in
  (* Wrap the field components in sampling grids for bilinear reads. *)
  let region = c.Netlist.Circuit.region in
  let gx = Geometry.Grid2.create region ~nx ~ny in
  let gy = Geometry.Grid2.create region ~nx ~ny in
  Array.blit field.Numeric.Poisson.fx 0 (Geometry.Grid2.values gx) 0 (nx * ny);
  Array.blit field.Numeric.Poisson.fy 0 (Geometry.Grid2.values gy) 0 (nx * ny);
  let fx = Array.make n_movable 0. and fy = Array.make n_movable 0. in
  (* Each movable cell owns its force slot, so bilinear sampling chunks
     across the domain pool with bitwise-identical results. *)
  let cells = c.Netlist.Circuit.cells in
  let sample_range i0 i1 =
    for i = i0 to i1 - 1 do
      let cl = cells.(i) in
      let v = var_of_cell.(cl.Netlist.Cell.id) in
      if v >= 0 then begin
        let x = p.Netlist.Placement.x.(cl.Netlist.Cell.id) in
        let y = p.Netlist.Placement.y.(cl.Netlist.Cell.id) in
        fx.(v) <- Geometry.Grid2.sample gx x y;
        fy.(v) <- Geometry.Grid2.sample gy x y
      end
    done
  in
  let ncells = Array.length cells in
  if ncells >= 2048 && Numeric.Parallel.num_domains () > 1 then
    Numeric.Parallel.parallel_range ~lo:0 ~hi:ncells sample_range
  else sample_range 0 ncells;
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
