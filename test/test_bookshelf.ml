(* Round-trip and parsing tests for the Bookshelf format subset. *)

let with_tempdir f =
  let dir = Filename.temp_file "bookshelf" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let bs_exn = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Netlist.Bookshelf.error_message e)

let sample () =
  let prof = Circuitgen.Profiles.find "fract" in
  let circuit, pads =
    Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale:0.5 prof ~seed:77)
  in
  let p = Circuitgen.Gen.initial_placement circuit pads in
  (circuit, p)

let test_roundtrip_counts_and_hpwl () =
  let circuit, p = sample () in
  with_tempdir (fun dir ->
      let base = Filename.concat dir "ckt" in
      Netlist.Bookshelf.save base circuit p;
      let circuit', p' = bs_exn (Netlist.Bookshelf.load_aux (base ^ ".aux")) in
      Alcotest.(check int) "cells" (Netlist.Circuit.num_cells circuit)
        (Netlist.Circuit.num_cells circuit');
      Alcotest.(check int) "nets" (Netlist.Circuit.num_nets circuit)
        (Netlist.Circuit.num_nets circuit');
      Alcotest.(check (float 1e-3)) "row height" circuit.Netlist.Circuit.row_height
        circuit'.Netlist.Circuit.row_height;
      (* HPWL of the loaded placement matches the saved one. *)
      Alcotest.(check (float 1.0)) "hpwl"
        (Metrics.Wirelength.hpwl circuit p)
        (Metrics.Wirelength.hpwl circuit' p'))

let test_roundtrip_positions () =
  let circuit, p = sample () in
  with_tempdir (fun dir ->
      let base = Filename.concat dir "ckt" in
      Netlist.Bookshelf.save base circuit p;
      let _, p' = bs_exn (Netlist.Bookshelf.load_aux (base ^ ".aux")) in
      Alcotest.(check bool) "x preserved" true
        (Helpers.max_abs_diff p.Netlist.Placement.x p'.Netlist.Placement.x < 1e-3);
      Alcotest.(check bool) "y preserved" true
        (Helpers.max_abs_diff p.Netlist.Placement.y p'.Netlist.Placement.y < 1e-3))

let test_terminals_roundtrip_fixed () =
  let circuit, p = sample () in
  with_tempdir (fun dir ->
      let base = Filename.concat dir "ckt" in
      Netlist.Bookshelf.save base circuit p;
      let circuit', _ = bs_exn (Netlist.Bookshelf.load_aux (base ^ ".aux")) in
      Array.iteri
        (fun i (cl : Netlist.Cell.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "fixedness of %d" i)
            cl.Netlist.Cell.fixed
            circuit'.Netlist.Circuit.cells.(i).Netlist.Cell.fixed)
        circuit.Netlist.Circuit.cells)

let test_driver_preserved () =
  let circuit, p = sample () in
  with_tempdir (fun dir ->
      let base = Filename.concat dir "ckt" in
      Netlist.Bookshelf.save base circuit p;
      let circuit', _ = bs_exn (Netlist.Bookshelf.load_aux (base ^ ".aux")) in
      let driver (c : Netlist.Circuit.t) i =
        c.Netlist.Circuit.pin_cell.(c.Netlist.Circuit.net_start.(i))
      in
      for i = 0 to Netlist.Circuit.num_nets circuit - 1 do
        Alcotest.(check int)
          (Printf.sprintf "driver of net %d" i)
          (driver circuit i) (driver circuit' i)
      done)

(* A 3-node benchmark written by hand, file by file; [edit] rewrites one
   file's text before it is written. *)
let hand_written ?(edit = fun _ text -> text) dir =
  let file name content =
    let oc = open_out (Filename.concat dir name) in
    output_string oc (edit name content);
    close_out oc
  in
  file "t.aux" "RowBasedPlacement : t.nodes t.nets t.pl t.scl\n";
  file "t.nodes"
    "UCLA nodes 1.0\n# comment\nNumNodes : 3\nNumTerminals : 1\n\
     a 8 16\nb 8 16\npad1 4 4 terminal\n";
  file "t.nets"
    "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\n\
     NetDegree : 2 n1\n  a O : 0 0\n  b I : 1 2\n\
     NetDegree : 2 n2\n  pad1 O : 0 0\n  a I : 0 0\n";
  file "t.pl" "UCLA pl 1.0\n\na 10 16 : N\nb 30 16 : N\npad1 0 0 : N /FIXED\n";
  file "t.scl"
    "UCLA scl 1.0\nNumRows : 2\n\
     CoreRow Horizontal\n  Coordinate : 0\n  Height : 16\n  Sitewidth : 1\n  \
     Sitespacing : 1\n  Siteorient : 1\n  Sitesymmetry : 1\n  \
     SubrowOrigin : 0  NumSites : 100\nEnd\n\
     CoreRow Horizontal\n  Coordinate : 16\n  Height : 16\n  Sitewidth : 1\n  \
     Sitespacing : 1\n  Siteorient : 1\n  Sitesymmetry : 1\n  \
     SubrowOrigin : 0  NumSites : 100\nEnd\n";
  Filename.concat dir "t.aux"

let test_hand_written_benchmark () =
  with_tempdir (fun dir ->
      let c, p = bs_exn (Netlist.Bookshelf.load_aux (hand_written dir)) in
      Alcotest.(check int) "cells" 3 (Netlist.Circuit.num_cells c);
      Alcotest.(check int) "nets" 2 (Netlist.Circuit.num_nets c);
      Alcotest.(check int) "rows" 2 (Netlist.Circuit.num_rows c);
      Alcotest.(check (float 1e-9)) "region width" 100.
        (Geometry.Rect.width c.Netlist.Circuit.region);
      (* a at lower-left (10,16) with 8×16 → centre (14, 24). *)
      Alcotest.(check (float 1e-9)) "a centre x" 14. p.Netlist.Placement.x.(0);
      Alcotest.(check (float 1e-9)) "a centre y" 24. p.Netlist.Placement.y.(0);
      Alcotest.(check bool) "pad fixed" true
        c.Netlist.Circuit.cells.(2).Netlist.Cell.fixed;
      (* Driver of n1 is a (the O pin). *)
      Alcotest.(check int) "driver" 0
        c.Netlist.Circuit.pin_cell.(c.Netlist.Circuit.net_start.(0));
      (* Pin offset parsed. *)
      Alcotest.(check (float 1e-9)) "pin dx" 1.
        c.Netlist.Circuit.pin_dx.(c.Netlist.Circuit.net_start.(0) + 1))

(* One bad number per input file: [load_aux] must return a typed error
   naming that file (and, for a size, the node), never a circuit with
   NaN or a made-up size in it nor an exception. *)
let bad_inputs =
  [
    (".nodes width nan", "t.nodes", "a 8 16\n", "a nan 16\n", "non-finite");
    (".nodes width -8", "t.nodes", "a 8 16\n", "a -8 16\n", "node a: negative width");
    (".nodes width 0", "t.nodes", "a 8 16\n", "a 0 16\n", "node a: zero width");
    (".nets offset nan", "t.nets", "b I : 1 2", "b I : nan 2", "non-finite");
    (".pl coordinate inf", "t.pl", "b 30 16", "b inf 16", "non-finite");
    (".scl row height 0", "t.scl", "Height : 16", "Height : 0", "row height");
  ]

(* Index of the first [sub] in [text], if any. *)
let find_sub text sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length text then None
    else if String.sub text i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* A [hand_written] edit: the first [before] in file [target] becomes
   [after]. *)
let replace target before after name text =
  match find_sub text before with
  | Some i when name = target ->
    let rest = i + String.length before in
    String.sub text 0 i ^ after ^ String.sub text rest (String.length text - rest)
  | _ -> text

let test_bad_input (_, target, before, after, reason) () =
  with_tempdir (fun dir ->
      let edit = replace target before after in
      match Netlist.Bookshelf.load_aux (hand_written ~edit dir) with
      | Ok _ -> Alcotest.failf "%s: loaded" target
      | Error e ->
        let msg = Netlist.Bookshelf.error_message e in
        Alcotest.(check string) ("file of " ^ msg) target
          (Filename.basename e.Netlist.Bookshelf.file);
        Alcotest.(check bool) ("reason of " ^ msg) true
          (find_sub msg reason <> None))

(* A fixed I/O pin may be written as a point. *)
let test_zero_size_terminal () =
  with_tempdir (fun dir ->
      let edit = replace "t.nodes" "pad1 4 4 terminal" "pad1 0 0 terminal" in
      let c, _ = bs_exn (Netlist.Bookshelf.load_aux (hand_written ~edit dir)) in
      let pad = c.Netlist.Circuit.cells.(2) in
      Alcotest.(check bool) "pad fixed" true pad.Netlist.Cell.fixed;
      Alcotest.(check (float 0.)) "pad width" 1e-3 pad.Netlist.Cell.width)

let test_missing_file_rejected () =
  with_tempdir (fun dir ->
      let file = Filename.concat dir "bad.aux" in
      let oc = open_out file in
      output_string oc "RowBasedPlacement : bad.nodes bad.pl bad.scl\n";
      close_out oc;
      match Netlist.Bookshelf.load_aux file with
      | Ok _ -> Alcotest.fail "expected a typed error"
      | Error e ->
        Alcotest.(check bool) "error names a file" true
          (e.Netlist.Bookshelf.file <> ""))

let test_placeable_after_load () =
  (* End-to-end: save → load → place the loaded circuit. *)
  let circuit, p = sample () in
  with_tempdir (fun dir ->
      let base = Filename.concat dir "ckt" in
      Netlist.Bookshelf.save base circuit p;
      let circuit', p0 = bs_exn (Netlist.Bookshelf.load_aux (base ^ ".aux")) in
      let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit' p0 in
      let rep = Legalize.Abacus.legalize circuit' state.Kraftwerk.Placer.placement () in
      Alcotest.(check bool) "legal" true
        (Legalize.Check.is_legal circuit' rep.Legalize.Abacus.placement))

let suite =
  [
    Alcotest.test_case "roundtrip counts/hpwl" `Quick test_roundtrip_counts_and_hpwl;
    Alcotest.test_case "roundtrip positions" `Quick test_roundtrip_positions;
    Alcotest.test_case "terminals fixed" `Quick test_terminals_roundtrip_fixed;
    Alcotest.test_case "driver preserved" `Quick test_driver_preserved;
    Alcotest.test_case "hand-written benchmark" `Quick test_hand_written_benchmark;
    Alcotest.test_case "zero-size terminal" `Quick test_zero_size_terminal;
    Alcotest.test_case "missing file" `Quick test_missing_file_rejected;
    Alcotest.test_case "placeable after load" `Quick test_placeable_after_load;
  ]
  @ List.map
      (fun ((name, _, _, _, _) as bad) ->
        Alcotest.test_case ("rejects " ^ name) `Quick (test_bad_input bad))
      bad_inputs
