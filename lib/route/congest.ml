let default_via_factor = 1.2

type t = {
  demand_h : Geometry.Grid2.t;
  demand_v : Geometry.Grid2.t;
  overflow : Geometry.Grid2.t;
  total_overflow : float;
  max_overflow : float;
}

let estimate_unchecked ~via_factor (c : Netlist.Circuit.t)
    (p : Netlist.Placement.t) (spec : Grid_spec.t) =
  let region = c.Netlist.Circuit.region in
  let nx = spec.Grid_spec.nx and ny = spec.Grid_spec.ny in
  let demand_h = Geometry.Grid2.create region ~nx ~ny in
  let demand_v = Geometry.Grid2.create region ~nx ~ny in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let bbox =
      Metrics.Wirelength.bbox_net c ~x:p.Netlist.Placement.x
        ~y:p.Netlist.Placement.y n
    in
    (* Expected wiring ≈ half-perimeter split into its h/v components,
       spread uniformly over the box (degenerate boxes splat into the
       bin row/column they occupy via the rect clip). *)
    let wl_h = Geometry.Rect.width bbox *. via_factor in
    let wl_v = Geometry.Rect.height bbox *. via_factor in
    if wl_h > 0. then Geometry.Grid2.splat_rect demand_h bbox wl_h;
    if wl_v > 0. then Geometry.Grid2.splat_rect demand_v bbox wl_v
  done;
  (* Capacity: tracks per bin times bin extent. *)
  let overflow = Geometry.Grid2.create region ~nx ~ny in
  let dx = Geometry.Grid2.dx overflow and dy = Geometry.Grid2.dy overflow in
  let cap_h = dy /. spec.Grid_spec.wire_pitch *. dx in
  let cap_v = dx /. spec.Grid_spec.wire_pitch *. dy in
  let total = ref 0. and maxo = ref 0. in
  Geometry.Grid2.map_inplace
    (fun ix iy _ ->
      let oh = Float.max 0. (Geometry.Grid2.get demand_h ix iy -. cap_h) in
      let ov = Float.max 0. (Geometry.Grid2.get demand_v ix iy -. cap_v) in
      let o = oh +. ov in
      total := !total +. o;
      if o > !maxo then maxo := o;
      o)
    overflow;
  { demand_h; demand_v; overflow; total_overflow = !total; max_overflow = !maxo }

let estimate ?(via_factor = default_via_factor) c p spec =
  match Grid_spec.validate spec c.Netlist.Circuit.region with
  | Error _ as e -> e
  | Ok () -> Ok (estimate_unchecked ~via_factor c p spec)
