type t = {
  name : string;
  cells : Cell.t array;
  net_start : int array;
  pin_cell : int array;
  pin_dx : float array;
  pin_dy : float array;
  net_name : string array;
  region : Geometry.Rect.t;
  row_height : float;
  cell_nets : int array array;
}

let check_shape ~who ~cells ~region ~row_height =
  if row_height <= 0. then invalid_arg (who ^ ": non-positive row height");
  if Geometry.Rect.area region <= 0. then invalid_arg (who ^ ": empty region");
  if Geometry.Rect.height region < row_height then
    invalid_arg (who ^ ": region holds no row");
  Array.iteri
    (fun i (c : Cell.t) ->
      if c.Cell.id <> i then invalid_arg (who ^ ": cell id out of order"))
    cells

(* The circuit around a checked pin table, with its cell→nets incidence:
   a cell on several pins of one net records the net once per pin —
   consumers dedupe if needed, and multiplicity matters for the clique
   weights anyway. *)
let assemble ~name ~cells ~net_start ~pin_cell ~pin_dx ~pin_dy ~net_name
    ~region ~row_height =
  let n = Array.length cells in
  let counts = Array.make n 0 in
  Array.iter (fun cl -> counts.(cl) <- counts.(cl) + 1) pin_cell;
  let cell_nets = Array.map (fun c -> Array.make c 0) counts in
  let cursor = Array.make n 0 in
  for i = 0 to Array.length net_name - 1 do
    for k = net_start.(i) to net_start.(i + 1) - 1 do
      let cl = pin_cell.(k) in
      cell_nets.(cl).(cursor.(cl)) <- i;
      cursor.(cl) <- cursor.(cl) + 1
    done
  done;
  { name; cells; net_start; pin_cell; pin_dx; pin_dy; net_name; region;
    row_height; cell_nets }

let make ~name ~cells ~nets ~region ~row_height =
  check_shape ~who:"Circuit.make" ~cells ~region ~row_height;
  let n = Array.length cells in
  let net_start = Array.make (Array.length nets + 1) 0 in
  Array.iteri
    (fun i (net : Net.t) ->
      if net.Net.id <> i then invalid_arg "Circuit.make: net id out of order";
      Array.iter
        (fun (p : Net.pin) ->
          if p.Net.cell < 0 || p.Net.cell >= n then
            invalid_arg "Circuit.make: pin references unknown cell")
        net.Net.pins;
      net_start.(i + 1) <- net_start.(i) + Array.length net.Net.pins)
    nets;
  let total = net_start.(Array.length nets) in
  let pin_cell = Array.make total 0 in
  let pin_dx = Array.make total 0. and pin_dy = Array.make total 0. in
  Array.iteri
    (fun i (net : Net.t) ->
      Array.iteri
        (fun j (p : Net.pin) ->
          let k = net_start.(i) + j in
          pin_cell.(k) <- p.Net.cell;
          pin_dx.(k) <- p.Net.dx;
          pin_dy.(k) <- p.Net.dy)
        net.Net.pins)
    nets;
  let net_name = Array.map (fun (net : Net.t) -> net.Net.name) nets in
  assemble ~name ~cells ~net_start ~pin_cell ~pin_dx ~pin_dy ~net_name ~region
    ~row_height

let of_pins ~name ~cells ~net_start ~pin_cell ~pin_dx ~pin_dy ~net_name
    ~region ~row_height =
  let who = "Circuit.of_pins" in
  check_shape ~who ~cells ~region ~row_height;
  let nets = Array.length net_name and total = Array.length pin_cell in
  if
    Array.length net_start <> nets + 1
    || net_start.(0) <> 0
    || net_start.(nets) <> total
    || Array.length pin_dx <> total
    || Array.length pin_dy <> total
  then invalid_arg (who ^ ": inconsistent pin table");
  let n = Array.length cells in
  Array.iter
    (fun cl ->
      if cl < 0 || cl >= n then invalid_arg (who ^ ": pin references unknown cell"))
    pin_cell;
  for i = 0 to nets - 1 do
    if net_start.(i + 1) < net_start.(i) then
      invalid_arg (who ^ ": inconsistent pin table");
    Net.check_pins ~cell:pin_cell ~dx:pin_dx ~dy:pin_dy net_start.(i)
      net_start.(i + 1)
  done;
  assemble ~name ~cells ~net_start ~pin_cell ~pin_dx ~pin_dy ~net_name ~region
    ~row_height

let num_cells c = Array.length c.cells

let num_nets c = Array.length c.net_name

let num_pins c = Array.length c.pin_cell

let degree c n = c.net_start.(n + 1) - c.net_start.(n)

let net_cells c n =
  let seen = Hashtbl.create (degree c n) in
  let acc = ref [] in
  for k = c.net_start.(n) to c.net_start.(n + 1) - 1 do
    let cl = c.pin_cell.(k) in
    if not (Hashtbl.mem seen cl) then begin
      Hashtbl.add seen cl ();
      acc := cl :: !acc
    end
  done;
  List.rev !acc

let nets c =
  Array.mapi
    (fun n name ->
      let s = c.net_start.(n) in
      { Net.id = n; name;
        pins =
          Array.init (degree c n) (fun j ->
              { Net.cell = c.pin_cell.(s + j); dx = c.pin_dx.(s + j);
                dy = c.pin_dy.(s + j) }) })
    c.net_name

let num_movable c =
  Array.fold_left (fun acc cl -> if Cell.movable cl then acc + 1 else acc) 0 c.cells

(* A loop rather than a float fold, with {!Cell.area} written out, keeps
   the running sum unboxed: the placer's per-iteration overflow and stop
   check call this. *)
let movable_area c =
  let acc = ref 0. in
  for i = 0 to Array.length c.cells - 1 do
    let cl = c.cells.(i) in
    if Cell.movable cl then acc := !acc +. (cl.Cell.width *. cl.Cell.height)
  done;
  !acc

let total_cell_area c =
  Array.fold_left
    (fun acc cl -> if cl.Cell.kind = Cell.Pad then acc else acc +. Cell.area cl)
    0. c.cells

let utilization c = total_cell_area c /. Geometry.Rect.area c.region

let num_rows c =
  int_of_float (Float.floor (Geometry.Rect.height c.region /. c.row_height))

let average_cell_area c =
  let m = num_movable c in
  if m = 0 then 0. else movable_area c /. float_of_int m

let nets_of_cell c id = c.cell_nets.(id)
