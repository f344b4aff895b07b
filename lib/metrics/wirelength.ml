let bbox_net (c : Netlist.Circuit.t) ~x ~y n =
  let x_lo = ref Float.infinity and x_hi = ref Float.neg_infinity in
  let y_lo = ref Float.infinity and y_hi = ref Float.neg_infinity in
  for k = c.Netlist.Circuit.net_start.(n) to c.Netlist.Circuit.net_start.(n + 1) - 1 do
    let cl = c.Netlist.Circuit.pin_cell.(k) in
    let px = x.(cl) +. c.Netlist.Circuit.pin_dx.(k) in
    let py = y.(cl) +. c.Netlist.Circuit.pin_dy.(k) in
    if px < !x_lo then x_lo := px;
    if px > !x_hi then x_hi := px;
    if py < !y_lo then y_lo := py;
    if py > !y_hi then y_hi := py
  done;
  Geometry.Rect.make ~x_lo:!x_lo ~y_lo:!y_lo ~x_hi:!x_hi ~y_hi:!y_hi

(* [bbox_net]'s comparisons in pin order, without the rectangle: the
   result and the all-NaN error are the same.  A 2-pin net's extent on
   each axis is [|q − p|], exactly; a NaN there means a pin the
   comparisons would skip (or an infinite extent), so the net falls back
   to them.  Inlined into the sums below, so a net's length is never
   boxed. *)
let[@inline] hpwl_net (c : Netlist.Circuit.t) ~x ~y n =
  let start = c.Netlist.Circuit.net_start and cell = c.Netlist.Circuit.pin_cell in
  let dx = c.Netlist.Circuit.pin_dx and dy = c.Netlist.Circuit.pin_dy in
  let s = start.(n) and e = start.(n + 1) in
  let v =
    if e - s = 2 then
      let p = cell.(s) and q = cell.(s + 1) in
      Float.abs (x.(q) +. dx.(s + 1) -. (x.(p) +. dx.(s)))
      +. Float.abs (y.(q) +. dy.(s + 1) -. (y.(p) +. dy.(s)))
    else Float.nan
  in
  if v = v then v
  else begin
    let x_lo = ref Float.infinity and x_hi = ref Float.neg_infinity in
    let y_lo = ref Float.infinity and y_hi = ref Float.neg_infinity in
    for k = s to e - 1 do
      let cl = cell.(k) in
      let px = x.(cl) +. dx.(k) in
      let py = y.(cl) +. dy.(k) in
      if px < !x_lo then x_lo := px;
      if px > !x_hi then x_hi := px;
      if py < !y_lo then y_lo := py;
      if py > !y_hi then y_hi := py
    done;
    if !x_hi < !x_lo || !y_hi < !y_lo then invalid_arg "Rect.make: inverted bounds";
    (!x_hi -. !x_lo) +. (!y_hi -. !y_lo)
  end

(* Loops rather than folds: a fold's float accumulator is boxed per net. *)
let hpwl c (p : Netlist.Placement.t) =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let acc = ref 0. in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    acc := !acc +. hpwl_net c ~x ~y n
  done;
  !acc

let weighted_hpwl c (p : Netlist.Placement.t) ~weights =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let acc = ref 0. in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    acc := !acc +. (weights.(n) *. hpwl_net c ~x ~y n)
  done;
  !acc

let quadratic (c : Netlist.Circuit.t) (p : Netlist.Placement.t) =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let start = c.Netlist.Circuit.net_start and cell = c.Netlist.Circuit.pin_cell in
  let dx = c.Netlist.Circuit.pin_dx and dy = c.Netlist.Circuit.pin_dy in
  let acc = ref 0. in
  for n = 0 to Netlist.Circuit.num_nets c - 1 do
    let w = 1. /. float_of_int (start.(n + 1) - start.(n)) in
    let sum = ref 0. in
    for i = start.(n) to start.(n + 1) - 1 do
      let xi = x.(cell.(i)) +. dx.(i) and yi = y.(cell.(i)) +. dy.(i) in
      for j = i + 1 to start.(n + 1) - 1 do
        let ddx = xi -. (x.(cell.(j)) +. dx.(j))
        and ddy = yi -. (y.(cell.(j)) +. dy.(j)) in
        sum := !sum +. (ddx *. ddx) +. (ddy *. ddy)
      done
    done;
    acc := !acc +. (w *. !sum)
  done;
  !acc
