(* The full-walk net-set evaluation that [Legalize.Nets]' frozen boxes
   replaced, kept as the reference they must match bit for bit: every
   candidate re-walks every pin of every net in the set with
   [Metrics.Wirelength.bbox_net]'s comparisons in pin order, and the
   nets are summed last-added first. *)

type set = {
  circuit : Netlist.Circuit.t;
  stamp : int array;
  mutable mark : int;
  members : int array;
  mutable len : int;
}

let set circuit =
  let n = Netlist.Circuit.num_nets circuit in
  { circuit; stamp = Array.make n (-1); mark = 0; members = Array.make n 0; len = 0 }

let clear s =
  s.mark <- s.mark + 1;
  s.len <- 0

let add_cell s id =
  let nets = Netlist.Circuit.nets_of_cell s.circuit id in
  for k = 0 to Array.length nets - 1 do
    let n = nets.(k) in
    if s.stamp.(n) <> s.mark then begin
      s.stamp.(n) <- s.mark;
      s.members.(s.len) <- n;
      s.len <- s.len + 1
    end
  done

let hpwl s (p : Netlist.Placement.t) =
  let c = s.circuit in
  let start = c.Netlist.Circuit.net_start and cell = c.Netlist.Circuit.pin_cell in
  let dx = c.Netlist.Circuit.pin_dx and dy = c.Netlist.Circuit.pin_dy in
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let total = ref 0. in
  for m = s.len - 1 downto 0 do
    let n = s.members.(m) in
    let x_lo = ref Float.infinity and x_hi = ref Float.neg_infinity in
    let y_lo = ref Float.infinity and y_hi = ref Float.neg_infinity in
    for k = start.(n) to start.(n + 1) - 1 do
      let px = x.(cell.(k)) +. dx.(k) in
      let py = y.(cell.(k)) +. dy.(k) in
      if px < !x_lo then x_lo := px;
      if px > !x_hi then x_hi := px;
      if py < !y_lo then y_lo := py;
      if py > !y_hi then y_hi := py
    done;
    if !x_hi < !x_lo || !y_hi < !y_lo then invalid_arg "Rect.make: inverted bounds";
    total := !total +. ((!x_hi -. !x_lo) +. (!y_hi -. !y_lo))
  done;
  !total
