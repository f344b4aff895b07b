type params = {
  name : string;
  num_cells : int;
  num_nets : int;
  num_pads : int;
  num_rows : int;
  utilization : float;
  seq_fraction : float;
  num_blocks : int;
  huge_nets : int;
  seed : int;
}

let default_params ~name ~num_cells ~num_nets ~num_rows ~seed =
  {
    name;
    num_cells;
    num_nets;
    num_pads = max 4 (num_cells / 40);
    num_rows;
    utilization = 0.8;
    seq_fraction = 0.12;
    num_blocks = 0;
    huge_nets = 0;
    seed;
  }

let row_height = 16.

(* Net degree: two-pin dominated with a geometric tail, matching standard-
   cell benchmark statistics. *)
let sample_degree rng =
  let u = Numeric.Rng.float rng 1. in
  if u < 0.55 then 2
  else if u < 0.75 then 3
  else if u < 0.85 then 4
  else if u < 0.90 then 5
  else min 24 (6 + Numeric.Rng.geometric rng 0.4)

let sample_cell_width rng = 4. +. (4. *. float_of_int (Numeric.Rng.int rng 7))

let generate p =
  if p.num_cells < 4 then invalid_arg "Gen.generate: too few cells";
  if p.utilization <= 0. || p.utilization > 1. then
    invalid_arg "Gen.generate: utilization out of (0,1]";
  let rng = Numeric.Rng.create p.seed in
  (* Standard cells. *)
  let widths = Array.init p.num_cells (fun _ -> sample_cell_width rng) in
  let std_area =
    Array.fold_left (fun acc w -> acc +. (w *. row_height)) 0. widths
  in
  (* Blocks: height a few rows, area a few hundred cells' worth. *)
  let block_dims =
    Array.init p.num_blocks (fun _ ->
        let rows = 2 + Numeric.Rng.int rng 5 in
        let h = float_of_int rows *. row_height in
        let w = Numeric.Rng.uniform rng 4. 12. *. row_height in
        (w, h))
  in
  let block_area =
    Array.fold_left (fun acc (w, h) -> acc +. (w *. h)) 0. block_dims
  in
  let core_height = float_of_int p.num_rows *. row_height in
  let core_width =
    (std_area +. block_area) /. (core_height *. p.utilization)
  in
  let region =
    Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:core_width ~y_hi:core_height
  in
  let n_internal = p.num_cells + p.num_blocks in
  let cells = ref [] in
  for i = 0 to p.num_cells - 1 do
    let sequential = Numeric.Rng.float rng 1. < p.seq_fraction in
    (* Intrinsic delays small enough that placement-dependent wire delay
       dominates the optimisation potential, as in the paper's Table 4
       (lower bound ≈ 25-40 % of the unoptimised longest path). *)
    let delay = Numeric.Rng.uniform rng 0.02e-9 0.12e-9 in
    let power = Numeric.Rng.uniform rng 0.2e-5 2e-5 in
    cells :=
      Netlist.Cell.make ~id:i
        ~name:("c" ^ string_of_int i)
        ~width:widths.(i) ~height:row_height ~kind:Netlist.Cell.Standard
        ~sequential ~delay ~power ()
      :: !cells
  done;
  Array.iteri
    (fun k (w, h) ->
      let i = p.num_cells + k in
      cells :=
        Netlist.Cell.make ~id:i
          ~name:("b" ^ string_of_int k)
          ~width:w ~height:h ~kind:Netlist.Cell.Block ~sequential:false
          ~delay:0.5e-9
          ~power:(Numeric.Rng.uniform rng 0.5e-3 2e-3)
          ()
        :: !cells)
    block_dims;
  (* Pad ring: evenly spaced centres on the region boundary. *)
  let pad_positions = ref [] in
  for k = 0 to p.num_pads - 1 do
    let i = n_internal + k in
    let t = float_of_int k /. float_of_int p.num_pads in
    let perim = 2. *. (core_width +. core_height) in
    let d = t *. perim in
    let px, py =
      if d < core_width then (d, 0.)
      else if d < core_width +. core_height then (core_width, d -. core_width)
      else if d < (2. *. core_width) +. core_height then
        (core_width -. (d -. core_width -. core_height), core_height)
      else (0., core_height -. (d -. (2. *. core_width) -. core_height))
    in
    cells :=
      Netlist.Cell.make ~id:i
        ~name:("p" ^ string_of_int k)
        ~width:row_height ~height:row_height ~kind:Netlist.Cell.Pad ()
      :: !cells;
    pad_positions := (i, (px, py)) :: !pad_positions
  done;
  let cells = Array.of_list (List.rev !cells) in
  (* Pin offset inside a cell footprint. *)
  let pin_offset cell_id =
    let cl = cells.(cell_id) in
    ( Numeric.Rng.uniform rng (-0.4) 0.4 *. cl.Netlist.Cell.width,
      Numeric.Rng.uniform rng (-0.4) 0.4 *. cl.Netlist.Cell.height )
  in
  let nets = ref [] and num_nets = ref 0 in
  let connected = Array.make (Array.length cells) false in
  let push_net name members =
    (* Driver = lowest internal index keeps the combinational graph
       acyclic; pads sort after cells but are sequential endpoints
       anyway.  Cells count as connected only if the net survives the
       dedup (a "net" whose pins all landed on one cell is dropped). *)
    let members = List.sort_uniq Int.compare members in
    match members with
    | [] | [ _ ] -> ()
    | _ ->
      List.iter (fun c -> connected.(c) <- true) members;
      let pins =
        List.map
          (fun cid ->
            let dx, dy = pin_offset cid in
            { Netlist.Net.cell = cid; dx; dy })
          members
        |> Array.of_list
      in
      nets := Netlist.Net.make ~id:!num_nets ~name pins :: !nets;
      incr num_nets
  in
  (* Pad nets: one per pad, linking the pad to a few index-proportional
     cells so boundary locality is plausible. *)
  for k = 0 to p.num_pads - 1 do
    let pad = n_internal + k in
    let anchor = Numeric.Rng.int rng p.num_cells in
    let extra = 1 + Numeric.Rng.int rng 3 in
    let members = ref [ pad ] in
    for _ = 1 to extra do
      let span = 1 + Numeric.Rng.int rng 64 in
      let c = max 0 (min (p.num_cells - 1) (anchor + Numeric.Rng.int rng (2 * span) - span)) in
      members := c :: !members
    done;
    push_net ("pad_n" ^ string_of_int k) !members
  done;
  (* Huge nets (> 60 pins) to exercise the STA degree cutoff. *)
  for k = 0 to p.huge_nets - 1 do
    let d = 80 + Numeric.Rng.int rng 70 in
    let members = ref [] in
    for _ = 1 to d do
      members := Numeric.Rng.int rng n_internal :: !members
    done;
    push_net ("huge" ^ string_of_int k) !members
  done;
  (* Rentian random nets: index-local windows of three scales. *)
  let budget = max 0 (p.num_nets - !num_nets) in
  for k = 0 to budget - 1 do
    let d = sample_degree rng in
    let center = Numeric.Rng.int rng n_internal in
    let u = Numeric.Rng.float rng 1. in
    let span =
      if u < 0.70 then 32
      else if u < 0.95 then max 64 (n_internal / 16)
      else n_internal
    in
    let members = ref [ center ] in
    for _ = 2 to d do
      let off = Numeric.Rng.int rng (2 * span) - span in
      let c = max 0 (min (n_internal - 1) (center + off)) in
      members := c :: !members
    done;
    push_net ("n" ^ string_of_int k) !members
  done;
  (* Chain any still-isolated internal cells so the placement matrix has
     no floating components. *)
  for i = 0 to n_internal - 1 do
    if not connected.(i) then begin
      let other = if i = 0 then 1 else i - 1 in
      push_net ("fix" ^ string_of_int i) [ i; other ]
    end
  done;
  let nets = Array.of_list (List.rev !nets) in
  let circuit =
    Netlist.Circuit.make ~name:p.name ~cells ~nets ~region ~row_height
  in
  (circuit, List.rev !pad_positions)

let initial_placement circuit fixed =
  Netlist.Placement.centered circuit ~fixed_positions:fixed
