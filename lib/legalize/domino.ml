type config = {
  neighborhood_rows : int;
  neighborhood_cols : int;
  max_group : int;
  window : int;
  passes : int;
}

let default_config =
  { neighborhood_rows = 4; neighborhood_cols = 8; max_group = 20; window = 4;
    passes = 2 }

let max_window = 8

let validate config =
  let fail field range =
    invalid_arg (Printf.sprintf "Domino: config.%s must be %s" field range)
  in
  if config.window < 1 || config.window > max_window then
    fail "window" (Printf.sprintf "in 1..%d" max_window);
  if config.max_group < 1 then fail "max_group" ">= 1";
  if config.neighborhood_rows < 1 then fail "neighborhood_rows" ">= 1";
  if config.neighborhood_cols < 1 then fail "neighborhood_cols" ">= 1";
  if config.passes < 0 then fail "passes" ">= 0"

(* -------------------------------------------------------------- *)
(* Flow reassignment                                               *)

(* The buffers of a pass or run: the ids of the movable standard cells,
   ascending, and two net sets on one pair of stamps, [group] for the
   nets of a whole group or window and [own] for those of one cell. *)
type buffers = { movable : int array; group : Nets.set; own : Nets.set }

let buffers (c : Netlist.Circuit.t) =
  let movable =
    Array.to_list c.Netlist.Circuit.cells
    |> List.filter_map (fun (cl : Netlist.Cell.t) ->
           if Netlist.Cell.movable cl && cl.Netlist.Cell.kind = Netlist.Cell.Standard
           then Some cl.Netlist.Cell.id
           else None)
    |> Array.of_list
  in
  let stamps = Nets.stamps c in
  { movable; group = Nets.set stamps; own = Nets.set stamps }

let flow config mcf buf (c : Netlist.Circuit.t) (p : Netlist.Placement.t) =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let cells = c.Netlist.Circuit.cells in
  let region = c.Netlist.Circuit.region in
  let moves = ref 0 and gain = ref 0. in
  (* Group cells by (width class, neighbourhood tile). *)
  let tile_h = float_of_int config.neighborhood_rows *. c.Netlist.Circuit.row_height in
  let tile_w = Geometry.Rect.width region /. float_of_int config.neighborhood_cols in
  let movable = buf.movable in
  let g =
    Groups.by_key ~size:64 (Array.length movable) (fun i ->
        let id = movable.(i) in
        let tx = int_of_float ((x.(id) -. region.Geometry.Rect.x_lo) /. tile_w) in
        let ty = int_of_float ((y.(id) -. region.Geometry.Rect.y_lo) /. tile_h) in
        (int_of_float (cells.(id).Netlist.Cell.width *. 1000.), tx, ty))
  in
  (* Reused across groups: the group's cells not yet in a run, the
     current run, the slots of the current chunk, its total before and
     after the permutation, and one cost matrix per chunk size. *)
  let pending = Array.make (Array.length movable) 0 in
  let ids = Array.make (Array.length movable) 0 in
  let slot_x = Array.make config.max_group 0. in
  let slot_y = Array.make config.max_group 0. in
  let total = Array.make 2 0. in
  let cost_matrices = Array.make (config.max_group + 1) [||] in
  (* The cells [ids.(off) … ids.(off + n − 1)] permute over their own
     slots. *)
  let process off n =
    if n >= 2 then begin
      Nets.clear buf.group;
      for i = 0 to n - 1 do
        let id = ids.(off + i) in
        slot_x.(i) <- x.(id);
        slot_y.(i) <- y.(id);
        Nets.add_cell buf.group id
      done;
      Nets.freeze buf.group p;
      Nets.hpwl_into buf.group p total 0;
      (* Separable cost: cell i at slot j with all other cells at their
         current positions. *)
      if Array.length cost_matrices.(n) = 0 then
        cost_matrices.(n) <- Array.make_matrix n n 0.;
      let costs = cost_matrices.(n) in
      for i = 0 to n - 1 do
        let id = ids.(off + i) in
        Nets.clear buf.own;
        Nets.add_cell buf.own id;
        Nets.freeze buf.own p;
        let row = costs.(i) in
        for j = 0 to n - 1 do
          x.(id) <- slot_x.(j);
          y.(id) <- slot_y.(j);
          Nets.hpwl_into buf.own p row j
        done;
        x.(id) <- slot_x.(i);
        y.(id) <- slot_y.(i)
      done;
      let choice = Numeric.Mincostflow.assign mcf ~costs in
      (* Apply the permutation, then verify the true (non-separable)
         objective and revert if it regressed. *)
      let changed = ref 0 in
      for i = 0 to n - 1 do
        let id = ids.(off + i) and j = choice.(i) in
        if slot_x.(j) <> slot_x.(i) || slot_y.(j) <> slot_y.(i) then incr changed;
        x.(id) <- slot_x.(j);
        y.(id) <- slot_y.(j)
      done;
      Nets.hpwl_into buf.group p total 1;
      if total.(1) < total.(0) -. 1e-9 && !changed > 0 then begin
        moves := !moves + !changed;
        gain := !gain +. (total.(0) -. total.(1))
      end
      else
        for i = 0 to n - 1 do
          let id = ids.(off + i) in
          x.(id) <- slot_x.(i);
          y.(id) <- slot_y.(i)
        done
    end
  in
  for o = 0 to Array.length g.Groups.order - 1 do
    let s = g.Groups.start.(g.Groups.order.(o)) in
    let rest = ref (g.Groups.start.(g.Groups.order.(o) + 1) - s) in
    for k = 0 to !rest - 1 do
      pending.(k) <- movable.(g.Groups.items.(s + k))
    done;
    (* Runs of one exact width, in the order each width is first seen;
       a run keeps the group's order.  Cells whose widths only share a
       width class never trade slots. *)
    while !rest > 0 do
      let w = Int64.bits_of_float cells.(pending.(0)).Netlist.Cell.width in
      let n = ref 0 and kept = ref 0 in
      for k = 0 to !rest - 1 do
        let id = pending.(k) in
        if Int64.bits_of_float cells.(id).Netlist.Cell.width = w then begin
          ids.(!n) <- id;
          incr n
        end
        else begin
          pending.(!kept) <- id;
          incr kept
        end
      done;
      rest := !kept;
      (* Split oversized runs so the assignment stays small. *)
      let off = ref 0 in
      while !off < !n do
        let chunk = min config.max_group (!n - !off) in
        process !off chunk;
        off := !off + chunk
      done
    done
  done;
  (!moves, !gain)

let flow_pass ?(config = default_config) c p =
  validate config;
  flow config (Numeric.Mincostflow.workspace ()) (buffers c) c p

(* -------------------------------------------------------------- *)
(* Window reordering                                               *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun perm -> x :: perm) (permutations rest))
      l

(* Every ordering of a window's positions, as index arrays in exactly
   [permutations]' order, so the first strict improvement still wins. *)
let permutation_table w =
  Array.of_list (List.map Array.of_list (permutations (List.init w Fun.id)))

(* Packs the window [arr.(base) …] from [left_edge] in [order]. *)
let[@inline] place_order x (cells : Netlist.Cell.t array) arr base order ~left_edge =
  let cursor = ref left_edge in
  for k = 0 to Array.length order - 1 do
    let id = arr.(base + order.(k)) in
    let width = cells.(id).Netlist.Cell.width in
    x.(id) <- !cursor +. (width /. 2.);
    cursor := !cursor +. width
  done

let reorder config perms buf ~obstacles (c : Netlist.Circuit.t)
    (p : Netlist.Placement.t) =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let cells = c.Netlist.Circuit.cells in
  let all_obstacles =
    obstacles
    @ (Array.to_list cells
      |> List.filter_map (fun (cl : Netlist.Cell.t) ->
             if cl.Netlist.Cell.fixed && cl.Netlist.Cell.kind <> Netlist.Cell.Pad
             then Some (Netlist.Placement.cell_rect c p cl.Netlist.Cell.id)
             else None))
  in
  let half_row = c.Netlist.Circuit.row_height /. 2. in
  (* The x-spans of the obstacles whose y-span meets the row band
     centred on [band_y], refreshed when a window's row y changes. *)
  let band_y = ref Float.nan and band_lo = ref [||] and band_hi = ref [||] in
  let refresh_band row_y =
    let meets =
      List.filter
        (fun (o : Geometry.Rect.t) ->
          o.Geometry.Rect.y_lo < row_y +. half_row && o.Geometry.Rect.y_hi > row_y -. half_row)
        all_obstacles
    in
    band_y := row_y;
    band_lo := Array.of_list (List.map (fun (o : Geometry.Rect.t) -> o.Geometry.Rect.x_lo) meets);
    band_hi := Array.of_list (List.map (fun (o : Geometry.Rect.t) -> o.Geometry.Rect.x_hi) meets)
  in
  let set = buf.group in
  let total = Array.make 2 0. in
  let improved = ref 0 and gain = ref 0. in
  (* Row membership from current y. *)
  let nrows = max 1 (Netlist.Circuit.num_rows c) in
  let rows = Array.make nrows [] in
  Array.iter
    (fun id ->
      let r = Rows.row_of_y c y.(id) in
      rows.(r) <- id :: rows.(r))
    buf.movable;
  let w = config.window in
  let original = Array.make w 0. in
  (* Two sweeps of disjoint windows (offset 0 and w/2) cover every
     neighbouring pair while keeping windows independent: a window only
     repacks within the span its own cells occupy, so the row stays
     legal. *)
  let sweep offset row_cells =
    let arr = Array.of_list row_cells in
    Array.sort (fun a b -> Float.compare x.(a) x.(b)) arr;
    let i = ref offset in
    while !i + w <= Array.length arr do
      let base = !i in
      let first = arr.(base) and last = arr.(base + w - 1) in
      let left_edge = x.(first) -. (cells.(first).Netlist.Cell.width /. 2.) in
      let right_edge = x.(last) +. (cells.(last).Netlist.Cell.width /. 2.) in
      let row_y = y.(first) in
      (* A window straddling an obstacle must not be repacked: the
         packed order could land a cell inside the obstacle. *)
      if row_y <> !band_y then refresh_band row_y;
      let lo = !band_lo and hi = !band_hi in
      let blocked = ref false and k = ref 0 in
      while (not !blocked) && !k < Array.length lo do
        if lo.(!k) < right_edge && hi.(!k) > left_edge then blocked := true;
        incr k
      done;
      if not !blocked then begin
        Nets.clear set;
        for k = 0 to w - 1 do
          let id = arr.(base + k) in
          Nets.add_cell set id;
          original.(k) <- x.(id)
        done;
        Nets.freeze set p;
        Nets.hpwl_into set p total 0;
        let before = total.(0) in
        let best_cost = ref before and best_order = ref (-1) in
        for q = 0 to Array.length perms - 1 do
          place_order x cells arr base perms.(q) ~left_edge;
          Nets.hpwl_into set p total 1;
          if total.(1) < !best_cost -. 1e-9 then begin
            best_cost := total.(1);
            best_order := q
          end
        done;
        if !best_order >= 0 then begin
          place_order x cells arr base perms.(!best_order) ~left_edge;
          incr improved;
          gain := !gain +. (before -. !best_cost)
        end
        else
          for k = 0 to w - 1 do
            x.(arr.(base + k)) <- original.(k)
          done
      end;
      i := base + w
    done
  in
  Array.iter
    (fun row_cells ->
      sweep 0 row_cells;
      sweep (w / 2) row_cells)
    rows;
  (!improved, !gain)

let reorder_pass ?(config = default_config) ?(obstacles = []) c p =
  validate config;
  reorder config (permutation_table config.window) (buffers c) ~obstacles c p

let run ?(config = default_config) ?(obstacles = []) c p =
  validate config;
  (* Per-run buffers: sharded workers run Domino concurrently. *)
  let perms = permutation_table config.window in
  let mcf = Numeric.Mincostflow.workspace () in
  let buf = buffers c in
  let moves = ref 0 and gain = ref 0. in
  let continue = ref true and pass = ref 0 in
  while !continue && !pass < config.passes do
    incr pass;
    let m1, g1 = flow config mcf buf c p in
    let m2, g2 = reorder config perms buf ~obstacles c p in
    moves := !moves + m1 + m2;
    gain := !gain +. g1 +. g2;
    if g1 +. g2 < 1e-9 then continue := false
  done;
  (!moves, !gain)
