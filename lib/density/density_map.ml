let auto_bins (c : Netlist.Circuit.t) =
  let avg = Float.max 1e-12 (Netlist.Circuit.average_cell_area c) in
  let r = c.Netlist.Circuit.region in
  (* Bin side ≈ 2 average-cell sides: fine enough to resolve clumps,
     coarse enough that the FFT stays cheap. *)
  let side = 2. *. sqrt avg in
  let clamp n = max 8 (min 128 n) in
  ( clamp (int_of_float (Float.ceil (Geometry.Rect.width r /. side))),
    clamp (int_of_float (Float.ceil (Geometry.Rect.height r /. side))) )

(* Below this cell count the parallel two-pass splat costs more in task
   dispatch and contribution buffers than it saves. *)
let demand_par_threshold = 4096

let demand (c : Netlist.Circuit.t) p ~nx ~ny =
  let g = Geometry.Grid2.create c.Netlist.Circuit.region ~nx ~ny in
  let cells = c.Netlist.Circuit.cells in
  let ncells = Array.length cells in
  if ncells >= demand_par_threshold && Numeric.Parallel.num_domains () > 1
  then begin
    (* Two-pass splat: the geometry (clipping, bin overlaps) of every
       cell is computed in parallel; the float accumulation then runs
       sequentially in cell order, performing exactly the additions the
       sequential path performs in the same order — bitwise-identical
       for any domain count. *)
    let contribs = Array.make ncells [||] in
    Numeric.Parallel.parallel_for ~lo:0 ~hi:ncells (fun i ->
        let cl = cells.(i) in
        if cl.Netlist.Cell.kind <> Netlist.Cell.Pad then
          contribs.(i) <-
            Geometry.Grid2.rect_contributions g
              (Netlist.Placement.cell_rect c p cl.Netlist.Cell.id)
              (Netlist.Cell.area cl));
    let gv = Geometry.Grid2.values g in
    Array.iter
      (fun cell_contribs ->
        Array.iter (fun (i, dv) -> gv.(i) <- gv.(i) +. dv) cell_contribs)
      contribs
  end
  else
    Array.iter
      (fun (cl : Netlist.Cell.t) ->
        if cl.Netlist.Cell.kind <> Netlist.Cell.Pad then
          Geometry.Grid2.splat_rect g
            (Netlist.Placement.cell_rect c p cl.Netlist.Cell.id)
            (Netlist.Cell.area cl))
      cells;
  g

let overflow c g =
  let movable = Netlist.Circuit.movable_area c in
  if movable <= 0. then 0.
  else begin
    let bin_area = Geometry.Grid2.dx g *. Geometry.Grid2.dy g in
    let over =
      Array.fold_left
        (fun acc v ->
          let u = v /. bin_area in
          if u > 1. then acc +. ((u -. 1.) *. bin_area) else acc)
        0. (Geometry.Grid2.values g)
    in
    over /. movable
  end

let balance ?extra demand =
  let nx = Geometry.Grid2.nx demand and ny = Geometry.Grid2.ny demand in
  let g = Geometry.Grid2.create (Geometry.Grid2.region demand) ~nx ~ny in
  let gv = Geometry.Grid2.values g in
  Array.blit (Geometry.Grid2.values demand) 0 gv 0 (nx * ny);
  (match extra with
  | None -> ()
  | Some e ->
    if Geometry.Grid2.nx e <> nx || Geometry.Grid2.ny e <> ny then
      invalid_arg "Density_map.balance: extra grid dimension mismatch";
    let ev = Geometry.Grid2.values e in
    for i = 0 to Array.length gv - 1 do
      gv.(i) <- gv.(i) +. ev.(i)
    done);
  (* Balance supply so the grid sums to zero (the paper's s, generalised
     to whatever demand the extra hook injected). *)
  let bin_area = Geometry.Grid2.dx g *. Geometry.Grid2.dy g in
  let total_demand = Geometry.Grid2.total g in
  let s = total_demand /. (bin_area *. float_of_int (nx * ny)) in
  (* Convert per-bin area into per-unit-area density and subtract s. *)
  Geometry.Grid2.map_inplace (fun _ _ v -> (v /. bin_area) -. s) g;
  g
