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
  (* Per row, the obstacle x-intervals crossing the row band. *)
  let nrows = max 1 (Netlist.Circuit.num_rows c) in
  let row_blocked = Array.make nrows [] in
  for r = 0 to nrows - 1 do
    let y_lo =
      c.Netlist.Circuit.region.Geometry.Rect.y_lo
      +. (float_of_int r *. c.Netlist.Circuit.row_height)
    in
    let y_hi = y_lo +. c.Netlist.Circuit.row_height in
    row_blocked.(r) <-
      List.filter_map
        (fun (o : Geometry.Rect.t) ->
          if o.Geometry.Rect.y_hi > y_lo +. 1e-9 && o.Geometry.Rect.y_lo < y_hi -. 1e-9
          then Some (o.Geometry.Rect.x_lo, o.Geometry.Rect.x_hi)
          else None)
        all_obstacles
  done;
  (* Clip a slide gap to the free interval containing x within the row. *)
  let clip_gap row ~x ~gap_lo ~gap_hi =
    List.fold_left
      (fun (lo, hi) (b_lo, b_hi) ->
        if b_hi <= x then (Float.max lo b_hi, hi)
        else if b_lo >= x then (lo, Float.min hi b_lo)
        else (x, x) (* cell already inside an obstacle: freeze it *))
      (gap_lo, gap_hi) row_blocked.(row)
  in
  let nets = Nets.set c in
  let accepted = ref 0 and improvement = ref 0. in
  let movable =
    Array.to_list c.Netlist.Circuit.cells
    |> List.filter (fun (cl : Netlist.Cell.t) ->
           Netlist.Cell.movable cl && cl.Netlist.Cell.kind = Netlist.Cell.Standard)
    |> Array.of_list
  in
  let try_swap (a : Netlist.Cell.t) (b : Netlist.Cell.t) =
    let ia = a.Netlist.Cell.id and ib = b.Netlist.Cell.id in
    Nets.clear nets;
    Nets.add_cell nets ia;
    Nets.add_cell nets ib;
    let before = Nets.hpwl nets p in
    let swap () =
      let tx = p.Netlist.Placement.x.(ia) and ty = p.Netlist.Placement.y.(ia) in
      p.Netlist.Placement.x.(ia) <- p.Netlist.Placement.x.(ib);
      p.Netlist.Placement.y.(ia) <- p.Netlist.Placement.y.(ib);
      p.Netlist.Placement.x.(ib) <- tx;
      p.Netlist.Placement.y.(ib) <- ty
    in
    swap ();
    let after = Nets.hpwl nets p in
    if after < before -. 1e-9 then begin
      incr accepted;
      improvement := !improvement +. (before -. after)
    end
    else swap ()
  in
  let try_slide (a : Netlist.Cell.t) ~gap_lo ~gap_hi =
    let ia = a.Netlist.Cell.id in
    let hw = a.Netlist.Cell.width /. 2. in
    if gap_hi -. gap_lo >= a.Netlist.Cell.width -. 1e-9 then begin
      Nets.clear nets;
      Nets.add_cell nets ia;
      let x0 = p.Netlist.Placement.x.(ia) in
      let before = Nets.hpwl nets p in
      let best_x = ref x0 and best_cost = ref before in
      (* Candidates: flush left, flush right, centred. *)
      for k = 0 to 2 do
        let x =
          if k = 0 then gap_lo +. hw
          else if k = 1 then gap_hi -. hw
          else (gap_lo +. gap_hi) /. 2.
        in
        if x >= gap_lo +. hw -. 1e-9 && x <= gap_hi -. hw +. 1e-9 then begin
          p.Netlist.Placement.x.(ia) <- x;
          let cost = Nets.hpwl nets p in
          if cost < !best_cost -. 1e-9 then begin
            best_cost := cost;
            best_x := x
          end
        end
      done;
      p.Netlist.Placement.x.(ia) <- !best_x;
      if !best_cost < before -. 1e-9 then begin
        incr accepted;
        improvement := !improvement +. (before -. !best_cost)
      end
    end
  in
  for _pass = 1 to passes do
    (* Equal-width swap sweep: for each cell, a few random partners of
       the same width. *)
    let by_width = Hashtbl.create 16 in
    Array.iter
      (fun (cl : Netlist.Cell.t) ->
        let key = int_of_float (cl.Netlist.Cell.width *. 1000.) in
        let prev = try Hashtbl.find by_width key with Not_found -> [] in
        Hashtbl.replace by_width key (cl :: prev))
      movable;
    Hashtbl.iter
      (fun _ group ->
        let arr = Array.of_list group in
        if Array.length arr >= 2 then
          Array.iter
            (fun a ->
              for _ = 1 to 4 do
                let b = Numeric.Rng.choose rng arr in
                if b.Netlist.Cell.id <> a.Netlist.Cell.id then try_swap a b
              done)
            arr)
      by_width;
    (* In-segment slide sweep: recompute row order, slide each cell in
       the gap between its neighbours. *)
    let by_row = Hashtbl.create 64 in
    Array.iter
      (fun (cl : Netlist.Cell.t) ->
        let r = Rows.row_of_y c p.Netlist.Placement.y.(cl.Netlist.Cell.id) in
        let prev = try Hashtbl.find by_row r with Not_found -> [] in
        Hashtbl.replace by_row r (cl :: prev))
      movable;
    let region = c.Netlist.Circuit.region in
    Hashtbl.iter
      (fun _ group ->
        let arr = Array.of_list group in
        Array.sort
          (fun (a : Netlist.Cell.t) b ->
            Float.compare
              p.Netlist.Placement.x.(a.Netlist.Cell.id)
              p.Netlist.Placement.x.(b.Netlist.Cell.id))
          arr;
        Array.iteri
          (fun i a ->
            let left_edge (cl : Netlist.Cell.t) =
              p.Netlist.Placement.x.(cl.Netlist.Cell.id)
              -. (cl.Netlist.Cell.width /. 2.)
            in
            let right_edge (cl : Netlist.Cell.t) =
              p.Netlist.Placement.x.(cl.Netlist.Cell.id)
              +. (cl.Netlist.Cell.width /. 2.)
            in
            let gap_lo =
              if i = 0 then region.Geometry.Rect.x_lo else right_edge arr.(i - 1)
            in
            let gap_hi =
              if i = Array.length arr - 1 then region.Geometry.Rect.x_hi
              else left_edge arr.(i + 1)
            in
            let row = Rows.row_of_y c p.Netlist.Placement.y.(a.Netlist.Cell.id) in
            let gap_lo, gap_hi =
              clip_gap row ~x:p.Netlist.Placement.x.(a.Netlist.Cell.id) ~gap_lo
                ~gap_hi
            in
            try_slide a ~gap_lo ~gap_hi)
          arr)
      by_row
  done;
  (!accepted, !improvement)
