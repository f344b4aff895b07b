(* Small helpers shared by the test suites. *)

(* [max_abs_diff a b] is the infinity norm of [a - b]. *)
let max_abs_diff a b =
  assert (Array.length a = Array.length b);
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let m = Float.abs (a.(i) -. b.(i)) in
    if m > !acc then acc := m
  done;
  !acc

(* [net_circuit nets] is a circuit over unit cells [0 .. max pin cell]
   carrying [nets] (each an array of [(cell, dx, dy)] pins, driver
   first), for tests that exercise one net's pin table. *)
let net_circuit nets =
  let n =
    Array.fold_left
      (Array.fold_left (fun m (cl, _, _) -> max m (cl + 1)))
      0 nets
  in
  let cells =
    Array.init n (fun i ->
        Netlist.Cell.make ~id:i ~name:(string_of_int i) ~width:1. ~height:1. ())
  in
  let nets =
    Array.mapi
      (fun id pins ->
        Netlist.Net.make ~id ~name:(Printf.sprintf "n%d" id)
          (Array.map (fun (cell, dx, dy) -> { Netlist.Net.cell; dx; dy }) pins))
      nets
  in
  Netlist.Circuit.make ~name:"nets" ~cells ~nets
    ~region:(Geometry.Rect.make ~x_lo:0. ~y_lo:0. ~x_hi:100. ~y_hi:100.)
    ~row_height:1.

(* Words allocated by [f], counted as minor + major − promoted (arrays
   above 256 words skip the minor heap). *)
let allocated_by f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. w0
