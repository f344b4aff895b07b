let bbox_net c ~x ~y (net : Netlist.Net.t) =
  let x_lo = ref Float.infinity and x_hi = ref Float.neg_infinity in
  let y_lo = ref Float.infinity and y_hi = ref Float.neg_infinity in
  Array.iter
    (fun pin ->
      let px, py = Netlist.Circuit.pin_position c ~x ~y pin in
      if px < !x_lo then x_lo := px;
      if px > !x_hi then x_hi := px;
      if py < !y_lo then y_lo := py;
      if py > !y_hi then y_hi := py)
    net.Netlist.Net.pins;
  Geometry.Rect.make ~x_lo:!x_lo ~y_lo:!y_lo ~x_hi:!x_hi ~y_hi:!y_hi

(* [bbox_net]'s comparisons in pin order, without the per-pin tuple or
   the rectangle: the result and the all-NaN error are the same.  Inlined
   into the sums below, so a net's length is never boxed. *)
let[@inline] hpwl_net _c ~x ~y (net : Netlist.Net.t) =
  let pins = net.Netlist.Net.pins in
  let x_lo = ref Float.infinity and x_hi = ref Float.neg_infinity in
  let y_lo = ref Float.infinity and y_hi = ref Float.neg_infinity in
  for i = 0 to Array.length pins - 1 do
    let pin = pins.(i) in
    let px = x.(pin.Netlist.Net.cell) +. pin.Netlist.Net.dx in
    let py = y.(pin.Netlist.Net.cell) +. pin.Netlist.Net.dy in
    if px < !x_lo then x_lo := px;
    if px > !x_hi then x_hi := px;
    if py < !y_lo then y_lo := py;
    if py > !y_hi then y_hi := py
  done;
  if !x_hi < !x_lo || !y_hi < !y_lo then invalid_arg "Rect.make: inverted bounds";
  (!x_hi -. !x_lo) +. (!y_hi -. !y_lo)

(* Loops rather than folds: a fold's float accumulator is boxed per net. *)
let hpwl c (p : Netlist.Placement.t) =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let nets = c.Netlist.Circuit.nets in
  let acc = ref 0. in
  for i = 0 to Array.length nets - 1 do
    acc := !acc +. hpwl_net c ~x ~y nets.(i)
  done;
  !acc

let weighted_hpwl c (p : Netlist.Placement.t) ~weights =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let nets = c.Netlist.Circuit.nets in
  let acc = ref 0. in
  for i = 0 to Array.length nets - 1 do
    let net = nets.(i) in
    acc := !acc +. (weights.(net.Netlist.Net.id) *. hpwl_net c ~x ~y net)
  done;
  !acc

let quadratic c (p : Netlist.Placement.t) =
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  Array.fold_left
    (fun acc (net : Netlist.Net.t) ->
      let pins = net.Netlist.Net.pins in
      let k = Array.length pins in
      let w = 1. /. float_of_int k in
      let sum = ref 0. in
      for i = 0 to k - 1 do
        let xi, yi = Netlist.Circuit.pin_position c ~x ~y pins.(i) in
        for j = i + 1 to k - 1 do
          let xj, yj = Netlist.Circuit.pin_position c ~x ~y pins.(j) in
          let dx = xi -. xj and dy = yi -. yj in
          sum := !sum +. (dx *. dx) +. (dy *. dy)
        done
      done;
      acc +. (w *. !sum))
    0. c.Netlist.Circuit.nets
