type stamps = {
  circuit : Netlist.Circuit.t;
  net_seen : int array;
  cell_moving : int array;
  mutable counter : int;
}

let stamps circuit =
  {
    circuit;
    net_seen = Array.make (Netlist.Circuit.num_nets circuit) (-1);
    cell_moving = Array.make (Netlist.Circuit.num_cells circuit) (-1);
    counter = 0;
  }

type set = {
  st : stamps;
  mutable mark : int;
  mutable members : int array;
  mutable len : int;
  (* Filled by [freeze], member by member: the box of the non-moving
     pins (x_lo, x_hi, y_lo, y_hi at [4 m] …), and the pin-table
     indices of the moving pins, [moving.(first.(m))] up to
     [moving.(first.(m + 1) - 1)] in pin order. *)
  mutable box : float array;
  mutable first : int array;
  mutable moving : int array;
}

let set st =
  st.counter <- st.counter + 1;
  {
    st;
    mark = st.counter;
    members = Array.make 16 0;
    len = 0;
    box = [||];
    first = [||];
    moving = Array.make 16 0;
  }

let clear s =
  s.st.counter <- s.st.counter + 1;
  s.mark <- s.st.counter;
  s.len <- 0

let grow a = Array.append a (Array.make (Array.length a) 0)

let add_cell s id =
  let st = s.st in
  st.cell_moving.(id) <- s.mark;
  let nets = Netlist.Circuit.nets_of_cell st.circuit id in
  for k = 0 to Array.length nets - 1 do
    let n = nets.(k) in
    if st.net_seen.(n) <> s.mark then begin
      st.net_seen.(n) <- s.mark;
      if s.len = Array.length s.members then s.members <- grow s.members;
      s.members.(s.len) <- n;
      s.len <- s.len + 1
    end
  done

let freeze s (p : Netlist.Placement.t) =
  let c = s.st.circuit in
  let start = c.Netlist.Circuit.net_start and cell = c.Netlist.Circuit.pin_cell in
  let dx = c.Netlist.Circuit.pin_dx and dy = c.Netlist.Circuit.pin_dy in
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let moving_stamp = s.st.cell_moving and mark = s.mark in
  let cap = Array.length s.members in
  if Array.length s.box < 4 * cap then s.box <- Array.make (4 * cap) 0.;
  if Array.length s.first < cap + 1 then s.first <- Array.make (cap + 1) 0;
  let box = s.box and first = s.first in
  let pos = ref 0 in
  for m = 0 to s.len - 1 do
    let n = s.members.(m) in
    first.(m) <- !pos;
    let x_lo = ref Float.infinity and x_hi = ref Float.neg_infinity in
    let y_lo = ref Float.infinity and y_hi = ref Float.neg_infinity in
    for k = start.(n) to start.(n + 1) - 1 do
      let cl = cell.(k) in
      if moving_stamp.(cl) = mark then begin
        if !pos = Array.length s.moving then s.moving <- grow s.moving;
        s.moving.(!pos) <- k;
        incr pos
      end
      else begin
        let px = x.(cl) +. dx.(k) in
        let py = y.(cl) +. dy.(k) in
        if px < !x_lo then x_lo := px;
        if px > !x_hi then x_hi := px;
        if py < !y_lo then y_lo := py;
        if py > !y_hi then y_hi := py
      end
    done;
    box.(4 * m) <- !x_lo;
    box.((4 * m) + 1) <- !x_hi;
    box.((4 * m) + 2) <- !y_lo;
    box.((4 * m) + 3) <- !y_hi
  done;
  first.(s.len) <- !pos

(* Each net extends its frozen box by its moving pins with
   [Metrics.Wirelength.hpwl_net]'s comparisons; the nets are summed
   last-added first, the order of a list built by prepending. *)
let hpwl_into s (p : Netlist.Placement.t) (dst : float array) i =
  let c = s.st.circuit in
  let cell = c.Netlist.Circuit.pin_cell in
  let dx = c.Netlist.Circuit.pin_dx and dy = c.Netlist.Circuit.pin_dy in
  let x = p.Netlist.Placement.x and y = p.Netlist.Placement.y in
  let box = s.box and first = s.first and moving = s.moving in
  let total = ref 0. in
  for m = s.len - 1 downto 0 do
    let a = first.(m) and b = first.(m + 1) in
    let fx_lo = box.(4 * m) and fx_hi = box.((4 * m) + 1) in
    let fy_lo = box.((4 * m) + 2) and fy_hi = box.((4 * m) + 3) in
    let v = ref Float.nan in
    if b = a + 1 && fx_lo = fx_hi && fy_lo = fy_hi then begin
      (* One moving pin against a point: the box's extent is the
         distance, unless a NaN the comparisons would skip is involved. *)
      let k = moving.(a) in
      let px = x.(cell.(k)) +. dx.(k) in
      let py = y.(cell.(k)) +. dy.(k) in
      v := Float.abs (px -. fx_lo) +. Float.abs (py -. fy_lo)
    end;
    if Float.is_nan !v then begin
      let x_lo = ref fx_lo and x_hi = ref fx_hi in
      let y_lo = ref fy_lo and y_hi = ref fy_hi in
      for j = a to b - 1 do
        let k = moving.(j) in
        let px = x.(cell.(k)) +. dx.(k) in
        let py = y.(cell.(k)) +. dy.(k) in
        if px < !x_lo then x_lo := px;
        if px > !x_hi then x_hi := px;
        if py < !y_lo then y_lo := py;
        if py > !y_hi then y_hi := py
      done;
      if !x_hi < !x_lo || !y_hi < !y_lo then invalid_arg "Rect.make: inverted bounds";
      v := (!x_hi -. !x_lo) +. (!y_hi -. !y_lo)
    end;
    total := !total +. !v
  done;
  dst.(i) <- !total
