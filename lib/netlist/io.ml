type error = { file : string option; line : int option; reason : string }

let error_message e =
  match (e.file, e.line) with
  | Some f, Some l -> Printf.sprintf "%s:%d: %s" f l e.reason
  | Some f, None -> Printf.sprintf "%s: %s" f e.reason
  | None, Some l -> Printf.sprintf "line %d: %s" l e.reason
  | None, None -> e.reason

(* Internal control flow of the readers; converted to [Error] at the API
   boundary, never escapes this module. *)
exception Malformed of error

let malformed ?line reason = raise (Malformed { file = None; line; reason })

let kind_to_string = function
  | Cell.Standard -> "standard"
  | Cell.Block -> "block"
  | Cell.Pad -> "pad"

let kind_of_string = function
  | "standard" -> Cell.Standard
  | "block" -> Cell.Block
  | "pad" -> Cell.Pad
  | s -> failwith ("unknown cell kind: " ^ s)

(* The writers build their text in one buffer and hand it to the channel
   a chunk at a time.  Numbers go straight into the buffer through
   [Numtext], whose bytes are Printf's [%d] and [%.17g] (the [.ckt]/[.pos]
   MD5 pins of test_trajectory hold them), so a float reads back to the
   same bits. *)
let chunk = 65536

let writing oc f =
  let buf = Buffer.create chunk in
  let end_line () =
    Buffer.add_char buf '\n';
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  f buf end_line;
  Buffer.output_buffer oc buf

(* The circuit's text into [buf], [end_line] ending each line. *)
let circuit_text buf end_line (c : Circuit.t) =
  let word s =
    Buffer.add_char buf ' ';
    Buffer.add_string buf s
  and num v =
    Buffer.add_char buf ' ';
    Numtext.add_float buf v
  in
  Buffer.add_string buf "circuit";
  word c.Circuit.name;
  end_line ();
  let r = c.Circuit.region in
  Buffer.add_string buf "region";
  num r.Geometry.Rect.x_lo;
  num r.Geometry.Rect.y_lo;
  num r.Geometry.Rect.x_hi;
  num r.Geometry.Rect.y_hi;
  end_line ();
  Buffer.add_string buf "rowheight";
  num c.Circuit.row_height;
  end_line ();
  Array.iter
    (fun (cl : Cell.t) ->
      Buffer.add_string buf "cell";
      word cl.Cell.name;
      num cl.Cell.width;
      num cl.Cell.height;
      word (kind_to_string cl.Cell.kind);
      word (if cl.Cell.fixed then "1" else "0");
      word (if cl.Cell.sequential then "1" else "0");
      num cl.Cell.delay;
      num cl.Cell.power;
      end_line ())
    c.Circuit.cells;
  Array.iteri
    (fun n name ->
      Buffer.add_string buf "net";
      word name;
      for k = c.Circuit.net_start.(n) to c.Circuit.net_start.(n + 1) - 1 do
        Buffer.add_char buf ' ';
        Numtext.add_int buf c.Circuit.pin_cell.(k);
        Buffer.add_char buf ':';
        Numtext.add_float buf c.Circuit.pin_dx.(k);
        Buffer.add_char buf ':';
        Numtext.add_float buf c.Circuit.pin_dy.(k)
      done;
      end_line ())
    c.Circuit.net_name

let write_circuit oc c = writing oc (fun buf end_line -> circuit_text buf end_line c)

let add_circuit buf c = circuit_text buf (fun () -> Buffer.add_char buf '\n') c

(* Wraps the result-returning readers: [Malformed] and the [Failure]s of
   the numeric conversions both become typed errors, and so does a
   constructor's [Invalid_argument] outside any line. *)
let reading f =
  match f () with
  | v -> Ok v
  | exception Malformed e -> Error e
  | exception (Failure reason | Invalid_argument reason) ->
    Error { file = None; line = None; reason }

(* A finite float: NaN and the infinities are refused like any other
   malformed number. *)
let finite s =
  let v = float_of_string s in
  if Float.is_finite v then v else failwith ("non-finite number: " ^ s)

let read_circuit_exn ic =
  let name = ref "" in
  let region = ref None in
  let row_height = ref None in
  let cells = ref [] and num_cells = ref 0 in
  let nets = ref [] and num_nets = ref 0 in
  (* The largest pin cell index and its line: nets may precede the cells
     they name, so the range check waits for the end of the file. *)
  let max_pin = ref (-1, 0) in
  let lineno = ref 0 in
  let fail msg = malformed ~line:!lineno msg in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       (* Any [Failure] of a conversion below, or [Invalid_argument] of a
          constructor, carries this line. *)
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

let write_placement oc (p : Placement.t) =
  writing oc (fun buf end_line ->
      Array.iteri
        (fun i x ->
          Buffer.add_string buf "pos ";
          Numtext.add_int buf i;
          Buffer.add_char buf ' ';
          Numtext.add_float buf x;
          Buffer.add_char buf ' ';
          Numtext.add_float buf p.Placement.y.(i);
          end_line ())
        p.Placement.x)

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
  { Placement.x; y }

let read_placement ic ~num_cells =
  reading (fun () -> read_placement_exn ic ~num_cells)

let with_out file f =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let with_in file f =
  match open_in file with
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)
  | exception Sys_error reason ->
    Error { file = Some file; line = None; reason }

let in_file file = Result.map_error (fun e -> { e with file = Some file })

let save_circuit file c = with_out file (fun oc -> write_circuit oc c)

let load_circuit file = with_in file (fun ic -> in_file file (read_circuit ic))

let save_placement file p = with_out file (fun oc -> write_placement oc p)

let load_placement file ~num_cells =
  with_in file (fun ic -> in_file file (read_placement ic ~num_cells))
