type t = {
  nx : int;
  ny : int;
  region : Rect.t;
  dx : float;
  dy : float;
  values : float array; (* row-major: iy * nx + ix *)
}

let create region ~nx ~ny =
  if nx <= 0 || ny <= 0 then invalid_arg "Grid2.create: non-positive dims";
  if Rect.area region <= 0. then invalid_arg "Grid2.create: empty region";
  {
    nx;
    ny;
    region;
    dx = Rect.width region /. float_of_int nx;
    dy = Rect.height region /. float_of_int ny;
    values = Array.make (nx * ny) 0.;
  }

let nx g = g.nx

let ny g = g.ny

let dx g = g.dx

let dy g = g.dy

let region g = g.region

let index g ix iy =
  assert (ix >= 0 && ix < g.nx && iy >= 0 && iy < g.ny);
  (iy * g.nx) + ix

let get g ix iy = g.values.(index g ix iy)

let set g ix iy v = g.values.(index g ix iy) <- v

let add g ix iy v =
  let i = index g ix iy in
  g.values.(i) <- g.values.(i) +. v

let values g = g.values

let bin_rect g ix iy =
  let x_lo = g.region.Rect.x_lo +. (float_of_int ix *. g.dx) in
  let y_lo = g.region.Rect.y_lo +. (float_of_int iy *. g.dy) in
  Rect.make ~x_lo ~y_lo ~x_hi:(x_lo +. g.dx) ~y_hi:(y_lo +. g.dy)

let bin_center g ix iy =
  ( g.region.Rect.x_lo +. ((float_of_int ix +. 0.5) *. g.dx),
    g.region.Rect.y_lo +. ((float_of_int iy +. 0.5) *. g.dy) )

(* Monomorphic clamps: a polymorphic one compares through the generic
   [compare] and boxes its float arguments. *)
let clamp_int (v : int) lo hi = if v < lo then lo else if v > hi then hi else v

let clamp_float (v : float) lo hi = if v < lo then lo else if v > hi then hi else v

(* The bin of coordinate [x] along one axis, clamped to the grid. *)
let[@inline] bin_of ~lo ~pitch ~n x =
  clamp_int (int_of_float (Float.floor ((x -. lo) /. pitch))) 0 (n - 1)

let locate g x y =
  ( bin_of ~lo:g.region.Rect.x_lo ~pitch:g.dx ~n:g.nx x,
    bin_of ~lo:g.region.Rect.y_lo ~pitch:g.dy ~n:g.ny y )

let sample g x y =
  (* Bilinear interpolation on the bin-centre lattice. *)
  let fx = ((x -. g.region.Rect.x_lo) /. g.dx) -. 0.5 in
  let fy = ((y -. g.region.Rect.y_lo) /. g.dy) -. 0.5 in
  let ix0 = clamp_int (int_of_float (Float.floor fx)) 0 (g.nx - 1) in
  let iy0 = clamp_int (int_of_float (Float.floor fy)) 0 (g.ny - 1) in
  let ix1 = clamp_int (ix0 + 1) 0 (g.nx - 1) in
  let iy1 = clamp_int (iy0 + 1) 0 (g.ny - 1) in
  let tx = clamp_float (fx -. float_of_int ix0) 0. 1. in
  let ty = clamp_float (fy -. float_of_int iy0) 0. 1. in
  let v00 = get g ix0 iy0 and v10 = get g ix1 iy0 in
  let v01 = get g ix0 iy1 and v11 = get g ix1 iy1 in
  let top = v00 +. (tx *. (v10 -. v00)) in
  let bot = v01 +. (tx *. (v11 -. v01)) in
  top +. (ty *. (bot -. top))

(* The bin holding point ([x], [y]): [locate] without its pair. *)
let[@inline] bin_index g x y =
  index g
    (bin_of ~lo:g.region.Rect.x_lo ~pitch:g.dx ~n:g.nx x)
    (bin_of ~lo:g.region.Rect.y_lo ~pitch:g.dy ~n:g.ny y)

(* Allocation-free: the clip, the centre and every bin's overlap are
   plain floats, computed with the operations, in the order, that
   [Rect.intersection], [Rect.area], [Rect.center] and
   [Rect.overlap_area] against [bin_rect] use, so the bins receive the
   same bits. *)
let splat_rect g rect v =
  let r = g.region and values = g.values in
  let x_lo = Float.max rect.Rect.x_lo r.Rect.x_lo
  and x_hi = Float.min rect.Rect.x_hi r.Rect.x_hi in
  let y_lo = Float.max rect.Rect.y_lo r.Rect.y_lo
  and y_hi = Float.min rect.Rect.y_hi r.Rect.y_hi in
  let total_area =
    (rect.Rect.x_hi -. rect.Rect.x_lo) *. (rect.Rect.y_hi -. rect.Rect.y_lo)
  in
  let cx = (rect.Rect.x_lo +. rect.Rect.x_hi) /. 2.
  and cy = (rect.Rect.y_lo +. rect.Rect.y_hi) /. 2. in
  if not (x_lo < x_hi && y_lo < y_hi) then begin
    (* Degenerate rectangle: splat into its centre bin if inside. *)
    if total_area = 0. && cx >= r.Rect.x_lo && cx <= r.Rect.x_hi
       && cy >= r.Rect.y_lo && cy <= r.Rect.y_hi
    then begin
      let i = bin_index g cx cy in
      values.(i) <- values.(i) +. v
    end
  end
  else if total_area = 0. then begin
    let i = bin_index g cx cy in
    values.(i) <- values.(i) +. v
  end
  else begin
    let ix_lo = bin_of ~lo:r.Rect.x_lo ~pitch:g.dx ~n:g.nx x_lo
    and iy_lo = bin_of ~lo:r.Rect.y_lo ~pitch:g.dy ~n:g.ny y_lo in
    (* Upper corner is exclusive-ish: nudge inward to pick the right bin. *)
    let ix_hi = bin_of ~lo:r.Rect.x_lo ~pitch:g.dx ~n:g.nx (x_hi -. (g.dx *. 1e-9))
    and iy_hi = bin_of ~lo:r.Rect.y_lo ~pitch:g.dy ~n:g.ny (y_hi -. (g.dy *. 1e-9)) in
    for iy = iy_lo to iy_hi do
      (* The row's overlap height, then each bin's overlap width. *)
      let by_lo = r.Rect.y_lo +. (float_of_int iy *. g.dy) in
      let oy_lo = Float.max y_lo by_lo and oy_hi = Float.min y_hi (by_lo +. g.dy) in
      for ix = ix_lo to ix_hi do
        let bx_lo = r.Rect.x_lo +. (float_of_int ix *. g.dx) in
        let ox_lo = Float.max x_lo bx_lo and ox_hi = Float.min x_hi (bx_lo +. g.dx) in
        if ox_lo < ox_hi && oy_lo < oy_hi then begin
          let ov = (ox_hi -. ox_lo) *. (oy_hi -. oy_lo) in
          if ov > 0. then begin
            let i = index g ix iy in
            values.(i) <- values.(i) +. (v *. ov /. total_area)
          end
        end
      done
    done
  end

let fold f init g =
  let acc = ref init in
  for iy = 0 to g.ny - 1 do
    for ix = 0 to g.nx - 1 do
      acc := f !acc ix iy g.values.((iy * g.nx) + ix)
    done
  done;
  !acc

let map_inplace f g =
  for iy = 0 to g.ny - 1 do
    for ix = 0 to g.nx - 1 do
      let i = (iy * g.nx) + ix in
      g.values.(i) <- f ix iy g.values.(i)
    done
  done

let total g =
  let acc = ref 0. in
  for i = 0 to Array.length g.values - 1 do
    acc := !acc +. g.values.(i)
  done;
  !acc

let largest_empty_square ?(scale = 1.) g ~threshold =
  (* Classic DP: side.(iy).(ix) = largest empty square with lower-right
     corner at bin (ix, iy). *)
  let best = ref 0 in
  let prev = Array.make g.nx 0 in
  let cur = Array.make g.nx 0 in
  let prev_ref = ref prev and cur_ref = ref cur in
  for iy = 0 to g.ny - 1 do
    let prev = !prev_ref and cur = !cur_ref in
    for ix = 0 to g.nx - 1 do
      let empty = g.values.((iy * g.nx) + ix) /. scale <= threshold in
      if not empty then cur.(ix) <- 0
      else if ix = 0 || iy = 0 then cur.(ix) <- 1
      else cur.(ix) <- 1 + min (min prev.(ix) cur.(ix - 1)) prev.(ix - 1);
      if cur.(ix) > !best then best := cur.(ix)
    done;
    prev_ref := cur;
    cur_ref := prev
  done;
  float_of_int !best *. Float.min g.dx g.dy
