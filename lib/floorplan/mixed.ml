type result = {
  placement : Netlist.Placement.t;
  block_displacement : float;
  hpwl_global : float;
  hpwl_final : float;
  finish : Legalize.Finish.t;
}

let block_rects (c : Netlist.Circuit.t) p =
  Array.to_list c.Netlist.Circuit.cells
  |> List.filter_map (fun (cl : Netlist.Cell.t) ->
         if cl.Netlist.Cell.kind = Netlist.Cell.Block && Netlist.Cell.movable cl
         then Some (cl.Netlist.Cell.id, Netlist.Placement.cell_rect c p cl.Netlist.Cell.id)
         else None)

(* Free x-intervals of a horizontal band after removing the obstacles
   that intersect it. *)
let free_intervals region ~y_lo ~y_hi obstacles =
  let blocked =
    List.filter_map
      (fun (o : Geometry.Rect.t) ->
        if o.Geometry.Rect.y_hi > y_lo +. 1e-9 && o.Geometry.Rect.y_lo < y_hi -. 1e-9
        then Some (o.Geometry.Rect.x_lo, o.Geometry.Rect.x_hi)
        else None)
      obstacles
    |> List.sort compare
  in
  let merged =
    List.fold_left
      (fun acc (lo, hi) ->
        match acc with
        | (plo, phi) :: rest when lo <= phi -> (plo, Float.max phi hi) :: rest
        | _ -> (lo, hi) :: acc)
      [] blocked
    |> List.rev
  in
  let intervals = ref [] and cursor = ref region.Geometry.Rect.x_lo in
  List.iter
    (fun (lo, hi) ->
      if lo > !cursor then intervals := (!cursor, lo) :: !intervals;
      cursor := Float.max !cursor hi)
    merged;
  if region.Geometry.Rect.x_hi > !cursor then
    intervals := (!cursor, region.Geometry.Rect.x_hi) :: !intervals;
  List.rev !intervals

let legalize_blocks (c : Netlist.Circuit.t) (p : Netlist.Placement.t) =
  let region = c.Netlist.Circuit.region in
  let rh = c.Netlist.Circuit.row_height in
  let nrows = Netlist.Circuit.num_rows c in
  let fixed_obstacles =
    Array.to_list c.Netlist.Circuit.cells
    |> List.filter_map (fun (cl : Netlist.Cell.t) ->
           if cl.Netlist.Cell.fixed && cl.Netlist.Cell.kind <> Netlist.Cell.Pad
           then Some (Netlist.Placement.cell_rect c p cl.Netlist.Cell.id)
           else None)
  in
  let blocks =
    block_rects c p
    |> List.sort (fun (_, (a : Geometry.Rect.t)) (_, b) ->
           Float.compare
             (Geometry.Rect.area b) (Geometry.Rect.area a))
  in
  let placed = ref fixed_obstacles in
  let rec go displacement = function
    | [] -> Ok displacement
    | (id, (r : Geometry.Rect.t)) :: rest -> (
      let w = Geometry.Rect.width r and h = Geometry.Rect.height r in
      let desired_x = p.Netlist.Placement.x.(id) in
      let desired_y = p.Netlist.Placement.y.(id) in
      let rows_for_block =
        max 1 (int_of_float (Float.ceil ((h -. 1e-9) /. rh)))
      in
      let home_row =
        int_of_float
          (Float.round ((desired_y -. (h /. 2.) -. region.Geometry.Rect.y_lo) /. rh))
      in
      let best = ref None and best_cost = ref Float.infinity in
      let consider_row r0 =
        if r0 >= 0 && r0 + rows_for_block <= nrows then begin
          let y_lo = region.Geometry.Rect.y_lo +. (float_of_int r0 *. rh) in
          let y_hi = y_lo +. h in
          let cy = (y_lo +. y_hi) /. 2. in
          let dy = Float.abs (cy -. desired_y) in
          if dy < !best_cost then
            List.iter
              (fun (ilo, ihi) ->
                if ihi -. ilo >= w -. 1e-9 then begin
                  let cx =
                    Float.min (Float.max desired_x (ilo +. (w /. 2.))) (ihi -. (w /. 2.))
                  in
                  let cost = Float.abs (cx -. desired_x) +. dy in
                  if cost < !best_cost then begin
                    best_cost := cost;
                    best := Some (cx, cy)
                  end
                end)
              (free_intervals region ~y_lo ~y_hi !placed)
        end
      in
      consider_row home_row;
      let offset = ref 1 in
      let continue = ref true in
      while !continue do
        if float_of_int (!offset - 1) *. rh > !best_cost then continue := false
        else begin
          consider_row (home_row - !offset);
          consider_row (home_row + !offset);
          incr offset;
          if !offset > nrows then continue := false
        end
      done;
      match !best with
      | None ->
        Error
          (Printf.sprintf "floorplan: block %d (%gx%g) does not fit the region"
             id w h)
      | Some (cx, cy) ->
        let dx = cx -. p.Netlist.Placement.x.(id) in
        let dy = cy -. p.Netlist.Placement.y.(id) in
        p.Netlist.Placement.x.(id) <- cx;
        p.Netlist.Placement.y.(id) <- cy;
        placed := Geometry.Rect.of_center ~cx ~cy ~w ~h :: !placed;
        go (displacement +. sqrt ((dx *. dx) +. (dy *. dy))) rest)
  in
  go 0. blocks

let place config (c : Netlist.Circuit.t) placement =
  let state, _ = Kraftwerk.Placer.run config c placement in
  let gp = state.Kraftwerk.Placer.placement in
  let hpwl_global = Metrics.Wirelength.hpwl c gp in
  let ( let* ) = Result.bind in
  let* block_displacement = legalize_blocks c gp in
  let obstacles = List.map snd (block_rects c gp) in
  let finish = Legalize.Finish.run ~obstacles c gp in
  let final = finish.Legalize.Finish.placement in
  Ok
    {
      placement = final;
      block_displacement;
      hpwl_global;
      hpwl_final = Metrics.Wirelength.hpwl c final;
      finish;
    }
