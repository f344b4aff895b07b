let auto_bins (c : Netlist.Circuit.t) =
  let avg = Float.max 1e-12 (Netlist.Circuit.average_cell_area c) in
  let r = c.Netlist.Circuit.region in
  (* Bin side ≈ 2 average-cell sides: fine enough to resolve clumps,
     coarse enough that the FFT stays cheap. *)
  let side = 2. *. sqrt avg in
  let clamp n = max 8 (min 128 n) in
  ( clamp (int_of_float (Float.ceil (Geometry.Rect.width r /. side))),
    clamp (int_of_float (Float.ceil (Geometry.Rect.height r /. side))) )

(* The bin of coordinate [x] along an axis starting at [lo] with pitch
   [pitch] and [n] bins, clamped to the grid (Grid2.locate's rule). *)
let[@inline] bin_of ~lo ~pitch ~n x =
  let i = int_of_float (Float.floor ((x -. lo) /. pitch)) in
  if i < 0 then 0 else if i > n - 1 then n - 1 else i

(* One cell's share of the splat, added to [gv]: a bitwise replica of
   Grid2.splat_rect on the cell rectangle (clip it to the region, locate
   the corner bins, give each touched bin v·overlap/area in row-major
   order; a zero-area rectangle goes whole to its centre bin), in plain
   floats so it allocates nothing. *)
let[@inline] splat_cell ~rx0 ~ry0 ~rx1 ~ry1 ~bdx ~bdy ~nx ~ny gv cx cy w h v =
  let x_lo = cx -. (w /. 2.) and y_lo = cy -. (h /. 2.) in
  let x_hi = cx +. (w /. 2.) and y_hi = cy +. (h /. 2.) in
  let area = (x_hi -. x_lo) *. (y_hi -. y_lo) in
  let cxl = Float.max x_lo rx0 and cxh = Float.min x_hi rx1 in
  let cyl = Float.max y_lo ry0 and cyh = Float.min y_hi ry1 in
  if cxl < cxh && cyl < cyh then begin
    if area = 0. then begin
      let mx = (x_lo +. x_hi) /. 2. and my = (y_lo +. y_hi) /. 2. in
      let i =
        (bin_of ~lo:ry0 ~pitch:bdy ~n:ny my * nx) + bin_of ~lo:rx0 ~pitch:bdx ~n:nx mx
      in
      gv.(i) <- gv.(i) +. v
    end
    else begin
      (* Upper corner is exclusive-ish: nudge inward to pick the right bin. *)
      let ix_lo = bin_of ~lo:rx0 ~pitch:bdx ~n:nx cxl
      and iy_lo = bin_of ~lo:ry0 ~pitch:bdy ~n:ny cyl in
      let ix_hi = bin_of ~lo:rx0 ~pitch:bdx ~n:nx (cxh -. (bdx *. 1e-9))
      and iy_hi = bin_of ~lo:ry0 ~pitch:bdy ~n:ny (cyh -. (bdy *. 1e-9)) in
      for iy = iy_lo to iy_hi do
        let by0 = ry0 +. (float_of_int iy *. bdy) in
        let by1 = by0 +. bdy in
        let oy0 = Float.max cyl by0 and oy1 = Float.min cyh by1 in
        for ix = ix_lo to ix_hi do
          let bx0 = rx0 +. (float_of_int ix *. bdx) in
          let ox0 = Float.max cxl bx0 and ox1 = Float.min cxh (bx0 +. bdx) in
          if ox0 < ox1 && oy0 < oy1 then begin
            let ov = (ox1 -. ox0) *. (oy1 -. oy0) in
            if ov > 0. then begin
              let i = (iy * nx) + ix in
              gv.(i) <- gv.(i) +. (v *. ov /. area)
            end
          end
        done
      done
    end
  end
  else if area = 0. then begin
    let mx = (x_lo +. x_hi) /. 2. and my = (y_lo +. y_hi) /. 2. in
    if mx >= rx0 && mx <= rx1 && my >= ry0 && my <= ry1 then begin
      let i =
        (bin_of ~lo:ry0 ~pitch:bdy ~n:ny my * nx) + bin_of ~lo:rx0 ~pitch:bdx ~n:nx mx
      in
      gv.(i) <- gv.(i) +. v
    end
  end

let demand_into (c : Netlist.Circuit.t) (p : Netlist.Placement.t) g =
  let gv = Geometry.Grid2.values g in
  Array.fill gv 0 (Array.length gv) 0.;
  let r = Geometry.Grid2.region g in
  let rx0 = r.Geometry.Rect.x_lo and ry0 = r.Geometry.Rect.y_lo in
  let rx1 = r.Geometry.Rect.x_hi and ry1 = r.Geometry.Rect.y_hi in
  let bdx = Geometry.Grid2.dx g and bdy = Geometry.Grid2.dy g in
  let nx = Geometry.Grid2.nx g and ny = Geometry.Grid2.ny g in
  let px = p.Netlist.Placement.x and py = p.Netlist.Placement.y in
  let cells = c.Netlist.Circuit.cells in
  for i = 0 to Array.length cells - 1 do
    let cl = cells.(i) in
    if cl.Netlist.Cell.kind <> Netlist.Cell.Pad then begin
      let id = cl.Netlist.Cell.id in
      let w = cl.Netlist.Cell.width and h = cl.Netlist.Cell.height in
      splat_cell ~rx0 ~ry0 ~rx1 ~ry1 ~bdx ~bdy ~nx ~ny gv px.(id) py.(id) w h (w *. h)
    end
  done

let demand (c : Netlist.Circuit.t) p ~nx ~ny =
  let g = Geometry.Grid2.create c.Netlist.Circuit.region ~nx ~ny in
  demand_into c p g;
  g

let overflow c g =
  let movable = Netlist.Circuit.movable_area c in
  if movable <= 0. then 0.
  else begin
    let bin_area = Geometry.Grid2.dx g *. Geometry.Grid2.dy g in
    let gv = Geometry.Grid2.values g in
    let over = ref 0. in
    for i = 0 to Array.length gv - 1 do
      let u = gv.(i) /. bin_area in
      if u > 1. then over := !over +. ((u -. 1.) *. bin_area)
    done;
    !over /. movable
  end

let balance ?extra ?out demand =
  let nx = Geometry.Grid2.nx demand and ny = Geometry.Grid2.ny demand in
  let g =
    match out with
    | Some g ->
      if Geometry.Grid2.nx g <> nx || Geometry.Grid2.ny g <> ny then
        invalid_arg "Density_map.balance: out grid dimension mismatch";
      g
    | None -> Geometry.Grid2.create (Geometry.Grid2.region demand) ~nx ~ny
  in
  let gv = Geometry.Grid2.values g and dv = Geometry.Grid2.values demand in
  (match extra with
  | None -> Array.blit dv 0 gv 0 (nx * ny)
  | Some e ->
    if Geometry.Grid2.nx e <> nx || Geometry.Grid2.ny e <> ny then
      invalid_arg "Density_map.balance: extra grid dimension mismatch";
    let ev = Geometry.Grid2.values e in
    for i = 0 to (nx * ny) - 1 do
      gv.(i) <- dv.(i) +. ev.(i)
    done);
  (* Balance supply so the grid sums to zero (the paper's s, generalised
     to whatever demand the extra hook injected). *)
  let bin_area = Geometry.Grid2.dx g *. Geometry.Grid2.dy g in
  let total_demand = Geometry.Grid2.total g in
  let s = total_demand /. (bin_area *. float_of_int (nx * ny)) in
  (* Convert per-bin area into per-unit-area density and subtract s. *)
  for i = 0 to (nx * ny) - 1 do
    gv.(i) <- (gv.(i) /. bin_area) -. s
  done;
  g
