let degree_histogram ?(max_degree = 16) (c : Netlist.Circuit.t) =
  let hist = Array.make (max_degree + 1) 0 in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let d = min max_degree (Netlist.Circuit.degree c n) in
    hist.(d) <- hist.(d) + 1
  done;
  hist

let average_degree (c : Netlist.Circuit.t) =
  let n = Netlist.Circuit.num_nets c in
  if n = 0 then 0.
  else float_of_int (Netlist.Circuit.num_pins c) /. float_of_int n

let pins_per_cell (c : Netlist.Circuit.t) =
  let cells =
    Array.fold_left
      (fun acc (cl : Netlist.Cell.t) ->
        if cl.Netlist.Cell.kind = Netlist.Cell.Pad then acc else acc + 1)
      0 c.Netlist.Circuit.cells
  in
  if cells = 0 then 0.
  else float_of_int (Netlist.Circuit.num_pins c) /. float_of_int cells

type rent_point = { block_size : int; external_nets : float }

let internal_count (c : Netlist.Circuit.t) =
  Array.fold_left
    (fun acc (cl : Netlist.Cell.t) ->
      if cl.Netlist.Cell.kind = Netlist.Cell.Pad then acc else acc + 1)
    0 c.Netlist.Circuit.cells

let external_nets_of_window (c : Netlist.Circuit.t) ~lo ~hi =
  (* A net is external to window [lo, hi) when it has pins on both
     sides of the boundary. *)
  let count = ref 0 in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let inside = ref false and outside = ref false in
    for k = c.Netlist.Circuit.net_start.(n) to c.Netlist.Circuit.net_start.(n + 1) - 1 do
      let cid = c.Netlist.Circuit.pin_cell.(k) in
      if cid >= lo && cid < hi then inside := true else outside := true
    done;
    if !inside && !outside then incr count
  done;
  !count

let rent_points (c : Netlist.Circuit.t) =
  let n = internal_count c in
  let sizes =
    let rec go s acc = if s > n / 4 then List.rev acc else go (2 * s) (s :: acc) in
    go 2 []
  in
  List.map
    (fun size ->
      (* Average over non-overlapping windows (cap the count so huge
         designs stay cheap). *)
      let windows = min 32 (n / size) in
      let stride = n / windows in
      let total = ref 0 in
      for w = 0 to windows - 1 do
        let lo = w * stride in
        total := !total + external_nets_of_window c ~lo ~hi:(lo + size)
      done;
      { block_size = size; external_nets = float_of_int !total /. float_of_int windows })
    (List.filter (fun s -> s <= n / 4 && s >= 2) sizes)

let rent_exponent c =
  let points =
    rent_points c |> List.filter (fun pt -> pt.external_nets > 0.)
  in
  match points with
  | [] | [ _ ] -> (0., 0.)
  | _ ->
    let xs = List.map (fun pt -> log (float_of_int pt.block_size)) points in
    let ys = List.map (fun pt -> log pt.external_nets) points in
    let n = float_of_int (List.length points) in
    let sx = List.fold_left ( +. ) 0. xs and sy = List.fold_left ( +. ) 0. ys in
    let sxx = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    let sxy = List.fold_left2 (fun acc x y -> acc +. (x *. y)) 0. xs ys in
    let p = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
    let log_t = (sy -. (p *. sx)) /. n in
    (exp log_t, p)
