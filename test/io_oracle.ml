(* The Printf writers that [Netlist.Io] and [Obs.Json] used before they
   called the float conversion directly, kept as the byte oracle: the
   library's text must equal what these print, byte for byte. *)

let kind_to_string = function
  | Netlist.Cell.Standard -> "standard"
  | Netlist.Cell.Block -> "block"
  | Netlist.Cell.Pad -> "pad"

let write_circuit oc (c : Netlist.Circuit.t) =
  let open Netlist in
  Printf.fprintf oc "circuit %s\n" c.Circuit.name;
  let r = c.Circuit.region in
  Printf.fprintf oc "region %.17g %.17g %.17g %.17g\n" r.Geometry.Rect.x_lo
    r.Geometry.Rect.y_lo r.Geometry.Rect.x_hi r.Geometry.Rect.y_hi;
  Printf.fprintf oc "rowheight %.17g\n" c.Circuit.row_height;
  Array.iter
    (fun (cl : Cell.t) ->
      Printf.fprintf oc "cell %s %.17g %.17g %s %d %d %.17g %.17g\n" cl.Cell.name
        cl.Cell.width cl.Cell.height (kind_to_string cl.Cell.kind)
        (if cl.Cell.fixed then 1 else 0)
        (if cl.Cell.sequential then 1 else 0)
        cl.Cell.delay cl.Cell.power)
    c.Circuit.cells;
  Array.iteri
    (fun n name ->
      Printf.fprintf oc "net %s" name;
      for k = c.Circuit.net_start.(n) to c.Circuit.net_start.(n + 1) - 1 do
        Printf.fprintf oc " %d:%.17g:%.17g" c.Circuit.pin_cell.(k)
          c.Circuit.pin_dx.(k) c.Circuit.pin_dy.(k)
      done;
      output_char oc '\n')
    c.Circuit.net_name

let write_placement oc (p : Netlist.Placement.t) =
  Array.iteri
    (fun i x ->
      Printf.fprintf oc "pos %d %.17g %.17g\n" i x p.Netlist.Placement.y.(i))
    p.Netlist.Placement.x

(* [Obs.Json]'s text of a [Num]. *)
let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v
