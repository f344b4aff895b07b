(* Bookshelf interchange: export a benchmark in the UCLA Bookshelf
   format (the academic placement-contest standard), reload it, place
   the reloaded circuit, and write the result back as a .pl file —
   demonstrating that the repository can sit inside a standard
   benchmark-driven flow.

     dune exec examples/bookshelf_flow.exe *)

let () =
  let profile = Circuitgen.Profiles.find "fract" in
  let params = Circuitgen.Profiles.params profile ~seed:21 in
  let circuit, pads = Circuitgen.Gen.generate params in
  let initial = Circuitgen.Gen.initial_placement circuit pads in

  (* Export. *)
  let dir = Filename.temp_file "bookshelf_demo" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base = Filename.concat dir "fract" in
  Netlist.Bookshelf.save base circuit initial;
  Printf.printf "exported %s.{aux,nodes,nets,pl,scl}\n" base;

  (* Reload and verify. *)
  let circuit', p0 =
    match Netlist.Bookshelf.load_aux (base ^ ".aux") with
    | Ok cp -> cp
    | Error e -> failwith (Netlist.Bookshelf.error_message e)
  in
  Printf.printf "reloaded: %d cells, %d nets, %d rows (hpwl preserved: %b)\n"
    (Netlist.Circuit.num_cells circuit')
    (Netlist.Circuit.num_nets circuit')
    (Netlist.Circuit.num_rows circuit')
    (Float.abs
       (Metrics.Wirelength.hpwl circuit initial
       -. Metrics.Wirelength.hpwl circuit' p0)
    < 1.);

  (* Place the reloaded circuit. *)
  let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard circuit' p0 in
  let final =
    (Legalize.Finish.run circuit' state.Kraftwerk.Placer.placement)
      .Legalize.Finish.placement
  in
  Printf.printf "placed: hpwl %.4g, legal %b\n"
    (Metrics.Wirelength.hpwl circuit' final)
    (Legalize.Check.is_legal circuit' final);

  (* Write the placed result back. *)
  Netlist.Bookshelf.save (base ^ "_placed") circuit' final;
  Printf.printf "wrote %s_placed.pl\n" base
