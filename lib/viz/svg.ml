type options = {
  width_px : float;
  show_rows : bool;
  show_nets : bool;
  max_nets_drawn : int;
  heat : Geometry.Grid2.t option;
}

let default_options =
  { width_px = 900.; show_rows = true; show_nets = false; max_nets_drawn = 500;
    heat = None }

let cell_fill (cl : Netlist.Cell.t) =
  match cl.Netlist.Cell.kind with
  | Netlist.Cell.Standard -> if cl.Netlist.Cell.fixed then "#8f8f8f" else "#6baed6"
  | Netlist.Cell.Block -> "#fdae6b"
  | Netlist.Cell.Pad -> "#74c476"

(* Map a normalised scalar in [0, 1] to a white→red ramp. *)
let heat_color v =
  let v = Float.min 1. (Float.max 0. v) in
  let g = int_of_float (255. *. (1. -. v)) in
  Printf.sprintf "rgb(255,%d,%d)" g g

let render ?(options = default_options) (c : Netlist.Circuit.t)
    (p : Netlist.Placement.t) =
  let region = c.Netlist.Circuit.region in
  let margin = 0.03 *. Geometry.Rect.width region in
  let world_w = Geometry.Rect.width region +. (2. *. margin) in
  let world_h = Geometry.Rect.height region +. (2. *. margin) in
  let scale = options.width_px /. world_w in
  let px x = (x -. region.Geometry.Rect.x_lo +. margin) *. scale in
  (* SVG y grows downward; flip so the placement's origin is bottom
     left. *)
  let py y = (region.Geometry.Rect.y_hi +. margin -. y) *. scale in
  let buf = Buffer.create 65536 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" \
     viewBox=\"0 0 %.2f %.2f\">\n"
    (world_w *. scale) (world_h *. scale) (world_w *. scale) (world_h *. scale);
  out "<rect width=\"100%%\" height=\"100%%\" fill=\"#ffffff\"/>\n";
  (* Heat overlay under everything but above the background. *)
  (match options.heat with
  | None -> ()
  | Some grid ->
    let vals = Geometry.Grid2.values grid in
    let vmax = Array.fold_left Float.max 1e-30 vals in
    for iy = 0 to Geometry.Grid2.ny grid - 1 do
      for ix = 0 to Geometry.Grid2.nx grid - 1 do
        let v = Geometry.Grid2.get grid ix iy in
        if v > 0. then begin
          let r = Geometry.Grid2.bin_rect grid ix iy in
          out
            "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" \
             fill=\"%s\" fill-opacity=\"0.6\"/>\n"
            (px r.Geometry.Rect.x_lo) (py r.Geometry.Rect.y_hi)
            (Geometry.Rect.width r *. scale)
            (Geometry.Rect.height r *. scale)
            (heat_color (v /. vmax))
        end
      done
    done);
  (* Region outline and rows. *)
  out
    "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" fill=\"none\" \
     stroke=\"#333333\" stroke-width=\"1.5\"/>\n"
    (px region.Geometry.Rect.x_lo) (py region.Geometry.Rect.y_hi)
    (Geometry.Rect.width region *. scale)
    (Geometry.Rect.height region *. scale);
  if options.show_rows then
    for r = 1 to Netlist.Circuit.num_rows c - 1 do
      let y = region.Geometry.Rect.y_lo +. (float_of_int r *. c.Netlist.Circuit.row_height) in
      out
        "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\" stroke=\"#dddddd\" \
         stroke-width=\"0.5\"/>\n"
        (px region.Geometry.Rect.x_lo) (py y) (px region.Geometry.Rect.x_hi) (py y)
    done;
  (* Cells. *)
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      let r = Netlist.Placement.cell_rect c p cl.Netlist.Cell.id in
      out
        "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" fill=\"%s\" \
         fill-opacity=\"0.8\" stroke=\"#555555\" stroke-width=\"0.3\"/>\n"
        (px r.Geometry.Rect.x_lo) (py r.Geometry.Rect.y_hi)
        (Geometry.Rect.width r *. scale)
        (Geometry.Rect.height r *. scale)
        (cell_fill cl))
    c.Netlist.Circuit.cells;
  (* Net fly-lines (driver to each sink). *)
  if options.show_nets then begin
    let pin k =
      let cl = c.Netlist.Circuit.pin_cell.(k) in
      ( p.Netlist.Placement.x.(cl) +. c.Netlist.Circuit.pin_dx.(k),
        p.Netlist.Placement.y.(cl) +. c.Netlist.Circuit.pin_dy.(k) )
    in
    for n = 0 to min options.max_nets_drawn (Netlist.Circuit.num_nets c) - 1 do
      let s = c.Netlist.Circuit.net_start.(n) in
      let dx_, dy_ = pin s in
      for k = s + 1 to c.Netlist.Circuit.net_start.(n + 1) - 1 do
        let sx, sy = pin k in
        out
          "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\" \
           stroke=\"#c51b8a\" stroke-width=\"0.4\" stroke-opacity=\"0.5\"/>\n"
          (px dx_) (py dy_) (px sx) (py sy)
      done
    done
  end;
  out "</svg>\n";
  Buffer.contents buf

let save file ?options c p =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render ?options c p))
