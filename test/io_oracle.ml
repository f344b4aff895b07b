(* The Printf writers that [Netlist.Io] and [Obs.Json] used before they
   called the float conversion directly, kept as the byte oracle: the
   library's text must equal what these print, byte for byte.  Below
   them, the readers kept the same way. *)

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

(* ------------------------------------------------------------------ *)
(* The line-splitting readers [Netlist.Io] had before its one-pass
   scanner: every line trimmed and split into a token list, every
   number through [float_of_string] or [int_of_string].  The scanner
   must return what these return, errors (line and reason) included. *)

exception Malformed of Netlist.Io.error

let malformed ?line reason =
  raise (Malformed { Netlist.Io.file = None; line; reason })

let reading f =
  match f () with
  | v -> Ok v
  | exception Malformed e -> Error e
  | exception (Failure reason | Invalid_argument reason) ->
    Error { Netlist.Io.file = None; line = None; reason }

let finite s =
  let v = float_of_string s in
  if Float.is_finite v then v else failwith ("non-finite number: " ^ s)

let kind_of_string = function
  | "standard" -> Netlist.Cell.Standard
  | "block" -> Netlist.Cell.Block
  | "pad" -> Netlist.Cell.Pad
  | s -> failwith ("unknown cell kind: " ^ s)

let read_circuit_exn ic =
  let open Netlist in
  let name = ref "" in
  let region = ref None in
  let row_height = ref None in
  let cells = ref [] and num_cells = ref 0 in
  let nets = ref [] and num_nets = ref 0 in
  let max_pin = ref (-1, 0) in
  let lineno = ref 0 in
  let fail msg = malformed ~line:!lineno msg in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       try
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> ()
         | "circuit" :: rest -> name := String.concat " " rest
         | [ "region"; a; b; c; d ] ->
           let r =
             Geometry.Rect.make ~x_lo:(finite a) ~y_lo:(finite b)
               ~x_hi:(finite c) ~y_hi:(finite d)
           in
           if Geometry.Rect.area r <= 0. then fail "empty region";
           region := Some r
         | [ "rowheight"; h ] ->
           let h = finite h in
           if h <= 0. then fail "non-positive row height";
           row_height := Some h
         | [ "cell"; nm; w; h; kind; fixed; seq; delay; power ] ->
           let cell =
             Cell.make ~id:!num_cells ~name:nm ~width:(finite w)
               ~height:(finite h) ~kind:(kind_of_string kind)
               ~fixed:(int_of_string fixed = 1)
               ~sequential:(int_of_string seq = 1)
               ~delay:(finite delay) ~power:(finite power) ()
           in
           cells := cell :: !cells;
           incr num_cells
         | "net" :: nm :: pins ->
           if pins = [] then fail "net with no pins";
           let parse_pin s =
             match String.split_on_char ':' s with
             | [ c; dx; dy ] ->
               let cell = int_of_string c in
               if cell < 0 then fail ("negative cell index: " ^ c);
               if cell > fst !max_pin then max_pin := (cell, !lineno);
               { Net.cell; dx = finite dx; dy = finite dy }
             | _ -> fail ("bad pin: " ^ s)
           in
           let net =
             Net.make ~id:!num_nets ~name:nm
               (Array.of_list (List.map parse_pin pins))
           in
           nets := net :: !nets;
           incr num_nets
         | tok :: _ -> fail ("unknown directive: " ^ tok)
         | [] -> ()
       with Failure reason | Invalid_argument reason -> fail reason
     done
   with End_of_file -> ());
  let cell, line = !max_pin in
  if cell >= !num_cells then
    malformed ~line (Printf.sprintf "pin references unknown cell %d" cell);
  let region =
    match !region with Some r -> r | None -> malformed "missing region"
  in
  let row_height =
    match !row_height with Some h -> h | None -> malformed "missing rowheight"
  in
  Circuit.make ~name:!name
    ~cells:(Array.of_list (List.rev !cells))
    ~nets:(Array.of_list (List.rev !nets))
    ~region ~row_height

let read_circuit ic = reading (fun () -> read_circuit_exn ic)

let read_placement_exn ic ~num_cells =
  let x = Array.make num_cells 0. and y = Array.make num_cells 0. in
  let seen = Array.make num_cells false in
  let lineno = ref 0 in
  let fail msg = malformed ~line:!lineno msg in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       try
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> ()
         | [ "pos"; i; px; py ] ->
           let i = int_of_string i in
           if i < 0 || i >= num_cells then fail "cell index out of range";
           if seen.(i) then fail (Printf.sprintf "repeated cell %d" i);
           x.(i) <- finite px;
           y.(i) <- finite py;
           seen.(i) <- true
         | _ -> fail "malformed line"
       with Failure reason -> fail reason
     done
   with End_of_file -> ());
  Array.iteri
    (fun i s ->
      if not s then malformed (Printf.sprintf "missing cell %d" i))
    seen;
  { Netlist.Placement.x; y }

let read_placement ic ~num_cells =
  reading (fun () -> read_placement_exn ic ~num_cells)
