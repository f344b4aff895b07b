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

(* The readers walk their input by index, a large chunk at a time
   ({!Scan}): lines and fields are ranges, and numbers are read in place
   (exactly, {!Numtext.scan_float}).  A net's pins fill a scratch table
   reused by every net line, are checked there and kept as three exact
   arrays; the circuit's pin table is allocated once, at its final size,
   when the file ends, because a table grown by doubling leaves its
   discarded copies in the heap, which raised a served job's peak RSS.
   Each check, its reason and its line are those of the line-splitting
   reader kept as test/io_oracle.ml, including the order in which one
   line's fields are checked. *)

(* A finite float: NaN and the infinities are refused like any other
   malformed number. *)
let finite_sub s a b =
  let v = Numtext.float_of_sub s a b in
  if Float.is_finite v then v
  else failwith ("non-finite number: " ^ String.sub s a (b - a))

let finite s = finite_sub s 0 (String.length s)

let kind_of_sub s a b =
  if Scan.equals s a b "standard" then Cell.Standard
  else if Scan.equals s a b "block" then Cell.Block
  else if Scan.equals s a b "pad" then Cell.Pad
  else failwith ("unknown cell kind: " ^ String.sub s a (b - a))

(* The bounds of the first [Array.length starts] fields of [s.[a .. b-1]]
   split at every space (empty fields included, as
   [String.split_on_char] gives them); the result is the field count. *)
let fields s a b starts stops =
  let n = ref 0 and k = ref a and more = ref true in
  while !more do
    let e = Scan.find s !k b ' ' in
    if !n < Array.length starts then begin
      starts.(!n) <- !k;
      stops.(!n) <- e
    end;
    incr n;
    if e >= b then more := false else k := e + 1
  done;
  !n

(* Pins as they are read: cell, x and y offset per pin. *)
type pins = {
  mutable cell : int array;
  mutable dx : float array;
  mutable dy : float array;
  mutable count : int;
}

(* Room for one more pin, at index [t.count]. *)
let reserve t =
  let k = t.count in
  if k = Array.length t.cell then begin
    let cap = max 64 (2 * k) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 k;
      b
    in
    t.cell <- extend t.cell 0;
    t.dx <- extend t.dx 0.;
    t.dy <- extend t.dy 0.
  end

let push_pin t cell dx dy =
  reserve t;
  let k = t.count in
  t.cell.(k) <- cell;
  t.dx.(k) <- dx;
  t.dy.(k) <- dy;
  t.count <- k + 1

(* A net as read, its pins checked. *)
type net = {
  net_name : string;
  net_cell : int array;
  net_dx : float array;
  net_dy : float array;
}

(* One circuit read in progress; cells and nets in reverse order. *)
type reader = {
  mutable text : string;  (* the window {!Scan.iter_lines} passes *)
  mutable name : string;
  mutable region : Geometry.Rect.t option;
  mutable row_height : float option;
  mutable cells : Cell.t list;
  mutable num_cells : int;
  pins : pins;  (* the net line at hand *)
  mutable nets : net list;
  mutable num_nets : int;
  mutable num_pins : int;
  (* The largest pin cell index and its line: nets may precede the cells
     they name, so the range check waits for the end of the file. *)
  mutable max_pin : int;
  mutable max_pin_line : int;
  starts : int array;  (* field bounds of the line at hand *)
  stops : int array;
  values : float array;  (* a cell line's four numbers *)
  mutable after : int;  (* the index after the digits [digits] read *)
}

let see_pin r line cell =
  if cell > r.max_pin then begin
    r.max_pin <- cell;
    r.max_pin_line <- line
  end

(* The non-negative int of 1 to 18 digits at [p]: its value, with the
   index after it in [r.after] (-1 when there is no digit). *)
let digits r p b =
  let s = r.text and e = ref p and v = ref 0 in
  while
    !e < b && !e - p < 18
    && String.unsafe_get s !e >= '0'
    && String.unsafe_get s !e <= '9'
  do
    v := (!v * 10) + Char.code (String.unsafe_get s !e) - 48;
    incr e
  done;
  r.after <- (if !e > p then !e else -1);
  !v

(* The pin [cell:dx:dy] that starts at [p] on a line ending at [b],
   checked as the line-splitting reader checked it: its end is the next
   space or [b], and its fields are read right to left after the colon
   count.  The index after it. *)
let checked_pin r line b p =
  let s = r.text in
  let q = Scan.find s p b ' ' in
  let c1 = Scan.find s p q ':' in
  let c2 = if c1 < q then Scan.find s (c1 + 1) q ':' else q in
  if c2 >= q || Scan.find s (c2 + 1) q ':' < q then
    malformed ~line ("bad pin: " ^ String.sub s p (q - p));
  let cell = Numtext.int_of_sub s p c1 in
  if cell < 0 then
    malformed ~line ("negative cell index: " ^ String.sub s p (c1 - p));
  see_pin r line cell;
  let dy = finite_sub s (c2 + 1) q in
  let dx = finite_sub s (c1 + 1) c2 in
  push_pin r.pins cell dx dy;
  q

(* The same pin in one pass where it is well formed (a cell index of up
   to 18 digits, two finite numbers {!Numtext.scan_float} reads, and
   the colons and the space or line end right after them), its offsets
   read straight into the pin table.  Any other text goes to
   [checked_pin]. *)
let pin r line b p =
  let s = r.text and t = r.pins in
  reserve t;
  let k = t.count in
  let cell = digits r p b in
  let e1 = r.after in
  let e2 =
    if e1 >= 0 && e1 < b && String.unsafe_get s e1 = ':' then
      Numtext.scan_float s (e1 + 1) b t.dx k
    else -1
  in
  let e3 =
    if e2 >= 0 && e2 < b && String.unsafe_get s e2 = ':' then
      Numtext.scan_float s (e2 + 1) b t.dy k
    else -1
  in
  if
    e3 >= 0
    && (e3 = b || String.unsafe_get s e3 = ' ')
    && Float.is_finite t.dx.(k)
    && Float.is_finite t.dy.(k)
  then begin
    t.cell.(k) <- cell;
    see_pin r line cell;
    t.count <- k + 1;
    e3
  end
  else checked_pin r line b p

(* [net NAME PIN...]: [t1] ends the directive. *)
let net_line r line t1 b =
  let s = r.text in
  let t2 = Scan.find s (t1 + 1) b ' ' in
  let name = String.sub s (t1 + 1) (t2 - t1 - 1) in
  if t2 = b then malformed ~line "net with no pins";
  let t = r.pins in
  t.count <- 0;
  let k = ref (t2 + 1) and more = ref true in
  while !more do
    let e = pin r line b !k in
    if e >= b then more := false else k := e + 1
  done;
  let n = t.count in
  Net.check_pins ~cell:t.cell ~dx:t.dx ~dy:t.dy 0 n;
  r.nets <-
    {
      net_name = name;
      net_cell = Array.sub t.cell 0 n;
      net_dx = Array.sub t.dx 0 n;
      net_dy = Array.sub t.dy 0 n;
    }
    :: r.nets;
  r.num_nets <- r.num_nets + 1;
  r.num_pins <- r.num_pins + n

let add_cell r ~name ~width ~height ~kind ~fixed ~sequential ~delay ~power =
  r.cells <-
    Cell.make ~id:r.num_cells ~name ~width ~height ~kind ~fixed ~sequential
      ~delay ~power ()
    :: r.cells;
  r.num_cells <- r.num_cells + 1

(* A line of [n] fields that is not a net: a [region], [rowheight] or
   [cell] line is checked right to left, anything else is an unknown
   directive. *)
let checked_line r line a t1 n =
  let s = r.text and starts = r.starts and stops = r.stops in
  let finite_field i = finite_sub s starts.(i) stops.(i) in
  let int_field i = Numtext.int_of_sub s starts.(i) stops.(i) in
  match n with
  | 5 when Scan.equals s a t1 "region" ->
    let y_hi = finite_field 4 in
    let x_hi = finite_field 3 in
    let y_lo = finite_field 2 in
    let x_lo = finite_field 1 in
    let region = Geometry.Rect.make ~x_lo ~y_lo ~x_hi ~y_hi in
    if Geometry.Rect.area region <= 0. then malformed ~line "empty region";
    r.region <- Some region
  | 2 when Scan.equals s a t1 "rowheight" ->
    let h = finite_field 1 in
    if h <= 0. then malformed ~line "non-positive row height";
    r.row_height <- Some h
  | 9 when Scan.equals s a t1 "cell" ->
    let power = finite_field 8 in
    let delay = finite_field 7 in
    let sequential = int_field 6 = 1 in
    let fixed = int_field 5 = 1 in
    let kind = kind_of_sub s starts.(4) stops.(4) in
    let height = finite_field 3 in
    let width = finite_field 2 in
    add_cell r
      ~name:(String.sub s starts.(1) (stops.(1) - starts.(1)))
      ~width ~height ~kind ~fixed ~sequential ~delay ~power
  | _ -> malformed ~line ("unknown directive: " ^ String.sub s a (t1 - a))

(* [cell NAME W H KIND FIXED SEQ DELAY POWER] in one pass where every
   field is well formed and one space apart; [false] sends the line to
   [checked_line]. *)
let cell_line r t1 b =
  let s = r.text and v = r.values in
  let number slot k last =
    if k < 0 then -1
    else
      let e = Numtext.scan_float s (k + 1) b v slot in
      if
        e >= 0
        && (if last then e = b else e < b && String.unsafe_get s e = ' ')
        && Float.is_finite v.(slot)
      then e
      else -1
  in
  (* A 0/1 flag after the space at [k]: whether it is 1, with the space
     after it in [r.after] (-1 when the field is not digits and a
     space). *)
  let flag k =
    let f = if k < 0 || k >= b then -1 else digits r (k + 1) b in
    let e = r.after in
    if f < 0 || not (e >= 0 && e < b && String.unsafe_get s e = ' ') then
      r.after <- -1;
    f = 1
  in
  let n1 = if t1 < b then Scan.find s (t1 + 1) b ' ' else b in
  let e_w = if n1 < b then number 0 n1 false else -1 in
  let e_h = number 1 e_w false in
  let e_kind = if e_h >= 0 then Scan.find s (e_h + 1) b ' ' else b in
  let kind =
    if e_kind >= b then None
    else if Scan.equals s (e_h + 1) e_kind "standard" then Some Cell.Standard
    else if Scan.equals s (e_h + 1) e_kind "block" then Some Cell.Block
    else if Scan.equals s (e_h + 1) e_kind "pad" then Some Cell.Pad
    else None
  in
  match kind with
  | None -> false
  | Some kind ->
    let fixed = flag e_kind in
    let sequential = flag r.after in
    let e_delay = number 2 r.after false in
    e_delay >= 0
    && number 3 e_delay true >= 0
    && begin
         add_cell r
           ~name:(String.sub s (t1 + 1) (n1 - t1 - 1))
           ~width:v.(0) ~height:v.(1) ~kind ~fixed ~sequential ~delay:v.(2)
           ~power:v.(3);
         true
       end

let circuit_line r s line a b =
  r.text <- s;
  if a < b then
    (* Any [Failure] of a conversion below, or [Invalid_argument] of a
       constructor, carries this line.  Where one line has several
       faults, the fields are checked right to left, as the arguments of
       the constructor calls of the line-splitting reader were
       evaluated. *)
    try
      let t1 = Scan.find s a b ' ' in
      if Scan.equals s a t1 "circuit" then
        r.name <- (if t1 = b then "" else String.sub s (t1 + 1) (b - t1 - 1))
      else if Scan.equals s a t1 "net" && t1 < b then net_line r line t1 b
      else if not (Scan.equals s a t1 "cell" && cell_line r t1 b) then
        checked_line r line a t1 (fields s a b r.starts r.stops)
    with Failure reason | Invalid_argument reason -> malformed ~line reason

let read_circuit_exn ic =
  let r =
    {
      text = "";
      name = "";
      region = None;
      row_height = None;
      cells = [];
      num_cells = 0;
      pins = { cell = [||]; dx = [||]; dy = [||]; count = 0 };
      nets = [];
      num_nets = 0;
      num_pins = 0;
      max_pin = -1;
      max_pin_line = 0;
      starts = Array.make 9 0;
      stops = Array.make 9 0;
      values = Array.make 4 0.;
      after = 0;
    }
  in
  Scan.iter_lines ic (circuit_line r);
  if r.max_pin >= r.num_cells then
    malformed ~line:r.max_pin_line
      (Printf.sprintf "pin references unknown cell %d" r.max_pin);
  let region =
    match r.region with Some g -> g | None -> malformed "missing region"
  in
  let row_height =
    match r.row_height with Some h -> h | None -> malformed "missing rowheight"
  in
  let cells =
    match r.cells with
    | [] -> [||]
    | last :: _ ->
      let a = Array.make r.num_cells last in
      List.iteri (fun i c -> a.(r.num_cells - 1 - i) <- c) r.cells;
      a
  in
  let total = r.num_pins in
  let pin_cell = Array.make total 0 in
  let pin_dx = Array.make total 0. and pin_dy = Array.make total 0. in
  let net_start = Array.make (r.num_nets + 1) total in
  let net_name = Array.make r.num_nets "" in
  let k = ref total in
  List.iteri
    (fun i net ->
      let n = r.num_nets - 1 - i and d = Array.length net.net_cell in
      k := !k - d;
      Array.blit net.net_cell 0 pin_cell !k d;
      Array.blit net.net_dx 0 pin_dx !k d;
      Array.blit net.net_dy 0 pin_dy !k d;
      net_start.(n) <- !k;
      net_name.(n) <- net.net_name)
    r.nets;
  Circuit.of_pins ~name:r.name ~cells ~net_start ~pin_cell ~pin_dx ~pin_dy
    ~net_name ~region ~row_height

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
  let starts = Array.make 4 0 and stops = Array.make 4 0 in
  let xy = Array.make 2 0. in
  (* [pos I X Y]: the field bounds in [starts]/[stops], found in one
     pass with the two numbers read into [xy] where the line is well
     formed; [false] where it needs the field split. *)
  let quick s a b =
    b - a > 4
    && Scan.equals s a (a + 4) "pos "
    &&
    let e1 = Scan.find s (a + 4) b ' ' in
    e1 < b
    &&
    let e2 = Numtext.scan_float s (e1 + 1) b xy 0 in
    e2 >= 0 && e2 < b
    && String.unsafe_get s e2 = ' '
    && Numtext.scan_float s (e2 + 1) b xy 1 = b
    && begin
         starts.(1) <- a + 4;
         stops.(1) <- e1;
         starts.(2) <- e1 + 1;
         stops.(2) <- e2;
         starts.(3) <- e2 + 1;
         stops.(3) <- b;
         true
       end
  in
  Scan.iter_lines ic (fun s line a b ->
      let fail msg = malformed ~line msg in
      if a < b then
        try
          let quick = quick s a b in
          if
            quick
            || fields s a b starts stops = 4
               && Scan.equals s starts.(0) stops.(0) "pos"
          then begin
            let i = Numtext.int_of_sub s starts.(1) stops.(1) in
            if i < 0 || i >= num_cells then fail "cell index out of range";
            if seen.(i) then fail (Printf.sprintf "repeated cell %d" i);
            x.(i) <-
              (if quick && Float.is_finite xy.(0) then xy.(0)
               else finite_sub s starts.(2) stops.(2));
            y.(i) <-
              (if quick && Float.is_finite xy.(1) then xy.(1)
               else finite_sub s starts.(3) stops.(3));
            seen.(i) <- true
          end
          else fail "malformed line"
        with Failure reason -> fail reason);
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

(* A file that opens but cannot be read (a directory) fails in the
   read, not in [open_in]. *)
let with_in file f =
  match open_in file with
  | ic -> (
    match Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic) with
    | r -> r
    | exception Sys_error reason ->
      Error { file = Some file; line = None; reason })
  | exception Sys_error reason ->
    Error { file = Some file; line = None; reason }

let in_file file = Result.map_error (fun e -> { e with file = Some file })

let save_circuit file c = with_out file (fun oc -> write_circuit oc c)

let load_circuit file = with_in file (fun ic -> in_file file (read_circuit ic))

let save_placement file p = with_out file (fun oc -> write_placement oc p)

let load_placement file ~num_cells =
  with_in file (fun ic -> in_file file (read_placement ic ~num_cells))
