(* Round-trip tests for the circuit/placement text format. *)

let with_temp f =
  let file = Filename.temp_file "kraftwerk_test" ".ckt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let sample_circuit () =
  let prof = Circuitgen.Profiles.find "fract" in
  let params = Circuitgen.Profiles.params ~scale:0.5 prof ~seed:9 in
  fst (Circuitgen.Gen.generate params)

let io_exn = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Netlist.Io.error_message e)

let test_circuit_roundtrip () =
  let c = sample_circuit () in
  with_temp (fun file ->
      Netlist.Io.save_circuit file c;
      let c' = io_exn (Netlist.Io.load_circuit file) in
      Alcotest.(check string) "name" c.Netlist.Circuit.name c'.Netlist.Circuit.name;
      Alcotest.(check int) "cells" (Netlist.Circuit.num_cells c)
        (Netlist.Circuit.num_cells c');
      Alcotest.(check int) "nets" (Netlist.Circuit.num_nets c)
        (Netlist.Circuit.num_nets c');
      Alcotest.(check (float 1e-12)) "row height" c.Netlist.Circuit.row_height
        c'.Netlist.Circuit.row_height;
      Alcotest.(check (float 1e-9)) "region width"
        (Geometry.Rect.width c.Netlist.Circuit.region)
        (Geometry.Rect.width c'.Netlist.Circuit.region);
      Array.iteri
        (fun i (cl : Netlist.Cell.t) ->
          let cl' = c'.Netlist.Circuit.cells.(i) in
          Alcotest.(check string) "cell name" cl.Netlist.Cell.name cl'.Netlist.Cell.name;
          Alcotest.(check (float 1e-12)) "cell width" cl.Netlist.Cell.width
            cl'.Netlist.Cell.width;
          Alcotest.(check bool) "cell fixed" cl.Netlist.Cell.fixed cl'.Netlist.Cell.fixed;
          Alcotest.(check bool) "cell seq" cl.Netlist.Cell.sequential
            cl'.Netlist.Cell.sequential)
        c.Netlist.Circuit.cells;
      Alcotest.(check (array int)) "net starts" c.Netlist.Circuit.net_start
        c'.Netlist.Circuit.net_start;
      Alcotest.(check (array int)) "pin cells" c.Netlist.Circuit.pin_cell
        c'.Netlist.Circuit.pin_cell)

let test_placement_roundtrip () =
  let c = sample_circuit () in
  let rng = Numeric.Rng.create 4 in
  let n = Netlist.Circuit.num_cells c in
  let p =
    {
      Netlist.Placement.x = Array.init n (fun _ -> Numeric.Rng.uniform rng 0. 100.);
      y = Array.init n (fun _ -> Numeric.Rng.uniform rng 0. 100.);
    }
  in
  with_temp (fun file ->
      Netlist.Io.save_placement file p;
      let p' = io_exn (Netlist.Io.load_placement file ~num_cells:n) in
      Alcotest.(check bool) "x restored" true
        (Helpers.max_abs_diff p.Netlist.Placement.x p'.Netlist.Placement.x = 0.);
      Alcotest.(check bool) "y restored" true
        (Helpers.max_abs_diff p.Netlist.Placement.y p'.Netlist.Placement.y = 0.))

let test_placement_missing_cell_rejected () =
  with_temp (fun file ->
      let oc = open_out file in
      output_string oc "pos 0 1.0 2.0\n";
      close_out oc;
      match Netlist.Io.load_placement file ~num_cells:2 with
      | Ok _ -> Alcotest.fail "expected a typed error"
      | Error e ->
        Alcotest.(check bool) "error names the file" true
          (e.Netlist.Io.file = Some file))

let test_malformed_circuit_rejected () =
  with_temp (fun file ->
      let oc = open_out file in
      output_string oc "circuit x\nbogus line here\n";
      close_out oc;
      match Netlist.Io.load_circuit file with
      | Ok _ -> Alcotest.fail "expected a typed error"
      | Error e ->
        Alcotest.(check (option int)) "error carries the line" (Some 2)
          e.Netlist.Io.line)

let test_missing_region_rejected () =
  with_temp (fun file ->
      let oc = open_out file in
      output_string oc "circuit x\nrowheight 16\n";
      close_out oc;
      match Netlist.Io.load_circuit file with
      | Ok _ -> Alcotest.fail "expected a typed error"
      | Error _ -> ())

(* A well-formed two-cell circuit whose line [line] (1-based) is
   replaced by [bad]: the reader must return an error naming that line,
   never raise. *)
let valid_lines =
  [ "circuit x"; "region 0 0 100 100"; "rowheight 16";
    "cell a 8 16 standard 0 0 1e-10 1e-05";
    "cell b 8 16 standard 0 0 1e-10 1e-05"; "net n 0:0:0 1:0:0" ]

let rejected_at line bad () =
  let text =
    List.mapi (fun i l -> if i + 1 = line then bad else l) valid_lines
    |> String.concat "\n"
  in
  with_temp (fun file ->
      let oc = open_out file in
      output_string oc text;
      close_out oc;
      match Netlist.Io.load_circuit file with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error e ->
        Alcotest.(check (option int)) (Netlist.Io.error_message e) (Some line)
          e.Netlist.Io.line)

let rejected_inputs =
  [
    ("one-pin net", 6, "net n 0:0:0");
    ("duplicate pin", 6, "net n 0:0:0 0:0:0");
    ("unknown cell", 6, "net n 0:0:0 2:0:0");
    ("negative cell", 6, "net n -1:0:0 1:0:0");
    ("zero row height", 3, "rowheight 0");
    ("inverted region", 2, "region 0 0 -5 100");
    ("non-positive cell size", 4, "cell a 0 16 standard 0 0 1e-10 1e-05");
    ("nan region", 2, "region 0 0 nan 10");
    ("nan row height", 3, "rowheight nan");
    ("nan pin offset", 6, "net n 0:nan:0 1:0:0");
    ("infinite cell width", 5, "cell b inf 16 standard 0 0 1e-10 1e-05");
  ]

let test_valid_lines_load () =
  with_temp (fun file ->
      let oc = open_out file in
      output_string oc (String.concat "\n" valid_lines);
      close_out oc;
      ignore (io_exn (Netlist.Io.load_circuit file)))

(* A second [pos] line for one cell is refused at the repeat's line
   rather than overriding the first, both by the reader and by a served
   job's source, which loads the [.pos] sidecar beside its circuit. *)
let test_placement_repeated_cell_rejected () =
  with_temp (fun ckt ->
      let pos = ckt ^ ".pos" in
      let write file text =
        let oc = open_out file in
        output_string oc text;
        close_out oc
      in
      write ckt (String.concat "\n" valid_lines);
      write pos "pos 0 1.0 2.0\npos 1 3.0 4.0\npos 0 5.0 6.0\n";
      Fun.protect
        ~finally:(fun () -> Sys.remove pos)
        (fun () ->
          let expected = pos ^ ":3: repeated cell 0" in
          (match Netlist.Io.load_placement pos ~num_cells:2 with
           | Ok _ -> Alcotest.fail "reader accepted a repeated pos line"
           | Error e ->
             Alcotest.(check string) "reader" expected
               (Netlist.Io.error_message e));
          match Engine.Source.load (Engine.Source.File ckt) with
          | Ok _ -> Alcotest.fail "source accepted a repeated pos line"
          | Error msg -> Alcotest.(check string) "source" expected msg))

let test_hpwl_preserved_by_roundtrip () =
  let c = sample_circuit () in
  let p = Netlist.Placement.centered c ~fixed_positions:[] in
  with_temp (fun file ->
      Netlist.Io.save_circuit file c;
      let c' = io_exn (Netlist.Io.load_circuit file) in
      Alcotest.(check (float 1e-6)) "same hpwl"
        (Metrics.Wirelength.hpwl c p)
        (Metrics.Wirelength.hpwl c' p))

(* The reader takes its input from a pipe as from a file: the text is
   read to its end without seeking. *)
let test_pipe_reads_as_file () =
  let c = sample_circuit () in
  with_temp (fun file ->
      Netlist.Io.save_circuit file c;
      let ic = Unix.open_process_in ("cat " ^ Filename.quote file) in
      let piped =
        Fun.protect
          ~finally:(fun () -> ignore (Unix.close_process_in ic))
          (fun () -> io_exn (Netlist.Io.read_circuit ic))
      in
      let text c =
        let b = Buffer.create 4096 in
        Netlist.Io.add_circuit b c;
        Buffer.contents b
      in
      Alcotest.(check string) "same circuit"
        (text (io_exn (Netlist.Io.load_circuit file)))
        (text piped))

(* Words allocated by [load_circuit] on primary1, per pin: the string of
   the file, the growable pin table and the cells.  The line-splitting
   reader allocated 105 to 108 words per pin here (token lists, a boxed
   float per number, [Net.t] records copied into the table); the
   scanner about 45. *)
let test_load_allocation () =
  let prof = Circuitgen.Profiles.find "primary1" in
  let c, _ =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:1.0 prof ~seed:1)
  in
  with_temp (fun file ->
      Netlist.Io.save_circuit file c;
      let words () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      ignore (io_exn (Netlist.Io.load_circuit file));
      let w0 = words () in
      ignore (Sys.opaque_identity (io_exn (Netlist.Io.load_circuit file)));
      let per_pin =
        (words () -. w0) /. float_of_int (Netlist.Circuit.num_pins c)
      in
      if per_pin > 60. then
        Alcotest.failf "load_circuit allocated %.1f words per pin (budget 60)"
          per_pin)

(* Input read a window at a time: a file several windows long, with one
   net line longer than the window, reads as the line-splitting reader
   kept in test/io_oracle.ml reads it, from a file and from a pipe. *)
let test_long_lines_and_windows () =
  let prof = Circuitgen.Profiles.find "primary1" in
  let c, _ =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:1.0 prof ~seed:3)
  in
  let b = Buffer.create (1 lsl 20) in
  Netlist.Io.add_circuit b c;
  Buffer.add_string b "net wide";
  let n = Netlist.Circuit.num_cells c in
  for i = 0 to 19_999 do
    Printf.bprintf b " %d:%.17g:-0.5" (i mod n) (float_of_int i /. 3.)
  done;
  Buffer.add_string b "\nnet tail 0:1:2 1:2:3";
  let text c =
    let b = Buffer.create 4096 in
    Netlist.Io.add_circuit b c;
    Buffer.contents b
  in
  with_temp (fun file ->
      Out_channel.with_open_bin file (fun oc -> Buffer.output_buffer oc b);
      let expected =
        text (io_exn (In_channel.with_open_bin file Io_oracle.read_circuit))
      in
      Alcotest.(check string) "file" expected
        (text (io_exn (Netlist.Io.load_circuit file)));
      let ic = Unix.open_process_in ("cat " ^ Filename.quote file) in
      let piped =
        Fun.protect
          ~finally:(fun () -> ignore (Unix.close_process_in ic))
          (fun () -> io_exn (Netlist.Io.read_circuit ic))
      in
      Alcotest.(check string) "pipe" expected (text piped))

let suite =
  [
    Alcotest.test_case "circuit roundtrip" `Quick test_circuit_roundtrip;
    Alcotest.test_case "placement roundtrip" `Quick test_placement_roundtrip;
    Alcotest.test_case "placement missing cell" `Quick test_placement_missing_cell_rejected;
    Alcotest.test_case "placement repeated cell" `Quick
      test_placement_repeated_cell_rejected;
    Alcotest.test_case "malformed circuit" `Quick test_malformed_circuit_rejected;
    Alcotest.test_case "missing region" `Quick test_missing_region_rejected;
    Alcotest.test_case "hpwl preserved" `Quick test_hpwl_preserved_by_roundtrip;
    Alcotest.test_case "valid base circuit" `Quick test_valid_lines_load;
    Alcotest.test_case "pipe reads as file" `Quick test_pipe_reads_as_file;
    Alcotest.test_case "load allocation" `Quick test_load_allocation;
    Alcotest.test_case "long lines and windows" `Quick test_long_lines_and_windows;
  ]
  @ List.map
      (fun (name, line, bad) ->
        Alcotest.test_case ("rejects " ^ name) `Quick (rejected_at line bad))
      rejected_inputs
