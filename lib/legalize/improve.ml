let swap (p : Netlist.Placement.t) ia ib =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let tx = x.(ia) and ty = y.(ia) in
  x.(ia) <- x.(ib);
  y.(ia) <- y.(ib);
  x.(ib) <- tx;
  y.(ib) <- ty

let run ?(seed = 1) ?(passes = 3) ?(obstacles = []) (c : Netlist.Circuit.t)
    (p : Netlist.Placement.t) =
  let rng = Numeric.Rng.create seed in
  let all_obstacles =
    obstacles
    @ (Array.to_list c.Netlist.Circuit.cells
      |> List.filter_map (fun (cl : Netlist.Cell.t) ->
             if cl.Netlist.Cell.fixed && cl.Netlist.Cell.kind <> Netlist.Cell.Pad
             then Some (Netlist.Placement.cell_rect c p cl.Netlist.Cell.id)
             else None))
  in
  (* Per row, the x-spans of the obstacles crossing the row band. *)
  let nrows = max 1 (Netlist.Circuit.num_rows c) in
  let blocked_lo = Array.make nrows [||] and blocked_hi = Array.make nrows [||] in
  for r = 0 to nrows - 1 do
    let y_lo =
      c.Netlist.Circuit.region.Geometry.Rect.y_lo
      +. (float_of_int r *. c.Netlist.Circuit.row_height)
    in
    let y_hi = y_lo +. c.Netlist.Circuit.row_height in
    let crossing =
      List.filter
        (fun (o : Geometry.Rect.t) ->
          o.Geometry.Rect.y_hi > y_lo +. 1e-9 && o.Geometry.Rect.y_lo < y_hi -. 1e-9)
        all_obstacles
    in
    blocked_lo.(r) <- Array.of_list (List.map (fun o -> o.Geometry.Rect.x_lo) crossing);
    blocked_hi.(r) <- Array.of_list (List.map (fun o -> o.Geometry.Rect.x_hi) crossing)
  done;
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let cells = c.Netlist.Circuit.cells in
  let region = c.Netlist.Circuit.region in
  let nets = Nets.set (Nets.stamps c) in
  (* [cost.(0)]: the move's start; [cost.(1)]: the candidate. *)
  let cost = Array.make 2 0. in
  let accepted = ref 0 and improvement = ref 0. in
  let movable =
    Array.to_list cells
    |> List.filter_map (fun (cl : Netlist.Cell.t) ->
           if Netlist.Cell.movable cl && cl.Netlist.Cell.kind = Netlist.Cell.Standard
           then Some cl.Netlist.Cell.id
           else None)
    |> Array.of_list
  in
  let nmov = Array.length movable in
  for _pass = 1 to passes do
    (* Equal-width swap sweep: for each cell, a few random partners of
       its width class; a partner of another exact width is drawn but
       not tried. *)
    let g =
      Groups.by_key ~size:16 nmov (fun i ->
          int_of_float (cells.(movable.(i)).Netlist.Cell.width *. 1000.))
    in
    for o = 0 to Array.length g.Groups.order - 1 do
      let s = g.Groups.start.(g.Groups.order.(o)) in
      let len = g.Groups.start.(g.Groups.order.(o) + 1) - s in
      if len >= 2 then
        for i = s to s + len - 1 do
          let ia = movable.(g.Groups.items.(i)) in
          for _ = 1 to 4 do
            let ib = movable.(g.Groups.items.(s + Numeric.Rng.int rng len)) in
            if
              ib <> ia
              && Int64.bits_of_float cells.(ib).Netlist.Cell.width
                 = Int64.bits_of_float cells.(ia).Netlist.Cell.width
            then begin
              Nets.clear nets;
              Nets.add_cell nets ia;
              Nets.add_cell nets ib;
              Nets.freeze nets p;
              Nets.hpwl_into nets p cost 0;
              swap p ia ib;
              Nets.hpwl_into nets p cost 1;
              if cost.(1) < cost.(0) -. 1e-9 then begin
                incr accepted;
                improvement := !improvement +. (cost.(0) -. cost.(1))
              end
              else swap p ia ib
            end
          done
        done
    done;
    (* In-segment slide sweep: recompute row order, slide each cell in
       the gap between its neighbours. *)
    let g = Groups.by_key ~size:64 nmov (fun i -> Rows.row_of_y c y.(movable.(i))) in
    for o = 0 to Array.length g.Groups.order - 1 do
      let s = g.Groups.start.(g.Groups.order.(o)) in
      let arr =
        Array.init (g.Groups.start.(g.Groups.order.(o) + 1) - s) (fun k ->
            movable.(g.Groups.items.(s + k)))
      in
      Array.sort (fun a b -> Float.compare x.(a) x.(b)) arr;
      (* Slides move cells along x only: the group's row is each cell's. *)
      let row = Rows.row_of_y c y.(arr.(0)) in
      let blo = blocked_lo.(row) and bhi = blocked_hi.(row) in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        let ia = arr.(i) in
        let lo =
          ref
            (if i = 0 then region.Geometry.Rect.x_lo
             else x.(arr.(i - 1)) +. (cells.(arr.(i - 1)).Netlist.Cell.width /. 2.))
        in
        let hi =
          ref
            (if i = n - 1 then region.Geometry.Rect.x_hi
             else x.(arr.(i + 1)) -. (cells.(arr.(i + 1)).Netlist.Cell.width /. 2.))
        in
        (* Clip the gap to the free interval containing the cell. *)
        let xa = x.(ia) in
        for k = 0 to Array.length blo - 1 do
          if bhi.(k) <= xa then lo := Float.max !lo bhi.(k)
          else if blo.(k) >= xa then hi := Float.min !hi blo.(k)
          else begin
            (* Cell already inside an obstacle: freeze it. *)
            lo := xa;
            hi := xa
          end
        done;
        let width = cells.(ia).Netlist.Cell.width in
        let hw = width /. 2. in
        (* A cell snug in its gap has nowhere to go: every candidate is
           its own position to within 1e-9, so only a gap wider than the
           cell by more than that is priced. *)
        if !hi -. !lo > width +. 1e-9 then begin
          Nets.clear nets;
          Nets.add_cell nets ia;
          Nets.freeze nets p;
          Nets.hpwl_into nets p cost 0;
          let before = cost.(0) in
          let best_x = ref xa and best_cost = ref before in
          (* Candidates: flush left, flush right, centred. *)
          for k = 0 to 2 do
            let cand =
              if k = 0 then !lo +. hw else if k = 1 then !hi -. hw else (!lo +. !hi) /. 2.
            in
            if cand >= !lo +. hw -. 1e-9 && cand <= !hi -. hw +. 1e-9 then begin
              x.(ia) <- cand;
              Nets.hpwl_into nets p cost 1;
              if cost.(1) < !best_cost -. 1e-9 then begin
                best_cost := cost.(1);
                best_x := cand
              end
            end
          done;
          x.(ia) <- !best_x;
          if !best_cost < before -. 1e-9 then begin
            incr accepted;
            improvement := !improvement +. (before -. !best_cost)
          end
        end
      done
    done
  done;
  (!accepted, !improvement)
