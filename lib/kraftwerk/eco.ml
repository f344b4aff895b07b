let movable_standard_ids (c : Netlist.Circuit.t) =
  Array.to_list c.Netlist.Circuit.cells
  |> List.filter (fun (cl : Netlist.Cell.t) ->
         cl.Netlist.Cell.kind = Netlist.Cell.Standard && Netlist.Cell.movable cl)
  |> List.map (fun (cl : Netlist.Cell.t) -> cl.Netlist.Cell.id)
  |> Array.of_list

let rebuild (c : Netlist.Circuit.t) ~cells ~nets =
  Netlist.Circuit.make ~name:c.Netlist.Circuit.name ~cells ~nets
    ~region:c.Netlist.Circuit.region ~row_height:c.Netlist.Circuit.row_height

let rewire (c : Netlist.Circuit.t) rng ~fraction =
  if fraction < 0. || fraction > 1. then invalid_arg "Eco.rewire: bad fraction";
  let candidates = movable_standard_ids c in
  let nets =
    Array.map
      (fun (net : Netlist.Net.t) ->
        if Numeric.Rng.float rng 1. >= fraction then net
        else begin
          let d = max 2 (min 5 (Netlist.Circuit.degree c net.Netlist.Net.id)) in
          (* Rejection-sample distinct cells for the replacement net. *)
          let chosen = Hashtbl.create d in
          while Hashtbl.length chosen < d do
            Hashtbl.replace chosen (Numeric.Rng.choose rng candidates) ()
          done;
          let pins =
            Hashtbl.fold (fun cid () acc -> cid :: acc) chosen []
            |> List.sort compare
            |> List.map (fun cid -> { Netlist.Net.cell = cid; dx = 0.; dy = 0. })
            |> Array.of_list
          in
          Netlist.Net.make ~id:net.Netlist.Net.id
            ~name:(net.Netlist.Net.name ^ "'") pins
        end)
      (Netlist.Circuit.nets c)
  in
  rebuild c ~cells:c.Netlist.Circuit.cells ~nets

let resize (c : Netlist.Circuit.t) rng ~fraction ~scale_range:(lo, hi) =
  if fraction < 0. || fraction > 1. then invalid_arg "Eco.resize: bad fraction";
  if lo <= 0. || hi < lo then invalid_arg "Eco.resize: bad scale range";
  let cells =
    Array.map
      (fun (cl : Netlist.Cell.t) ->
        if
          cl.Netlist.Cell.kind = Netlist.Cell.Standard
          && Netlist.Cell.movable cl
          && Numeric.Rng.float rng 1. < fraction
        then
          { cl with
            Netlist.Cell.width =
              cl.Netlist.Cell.width *. Numeric.Rng.uniform rng lo hi }
        else cl)
      c.Netlist.Circuit.cells
  in
  rebuild c ~cells ~nets:(Netlist.Circuit.nets c)

let add_cells (c : Netlist.Circuit.t) (p : Netlist.Placement.t) rng ~specs =
  let n0 = Netlist.Circuit.num_cells c in
  let candidates = movable_standard_ids c in
  let new_cells = ref [] and new_nets = ref [] in
  let new_positions = ref [] in
  let net_id = ref (Netlist.Circuit.num_nets c) in
  List.iteri
    (fun k (w, h) ->
      let id = n0 + k in
      new_cells :=
        Netlist.Cell.make ~id
          ~name:(Printf.sprintf "eco%d" k)
          ~width:w ~height:h ()
        :: !new_cells;
      let fanin = 2 + Numeric.Rng.int rng 3 in
      let chosen = Hashtbl.create fanin in
      while Hashtbl.length chosen < fanin do
        Hashtbl.replace chosen (Numeric.Rng.choose rng candidates) ()
      done;
      let neighbours = Hashtbl.fold (fun cid () acc -> cid :: acc) chosen [] in
      let cx =
        List.fold_left (fun a cid -> a +. p.Netlist.Placement.x.(cid)) 0. neighbours
        /. float_of_int fanin
      in
      let cy =
        List.fold_left (fun a cid -> a +. p.Netlist.Placement.y.(cid)) 0. neighbours
        /. float_of_int fanin
      in
      new_positions := (cx, cy) :: !new_positions;
      let pins =
        (List.sort compare neighbours @ [ id ])
        |> List.map (fun cid -> { Netlist.Net.cell = cid; dx = 0.; dy = 0. })
        |> Array.of_list
      in
      new_nets :=
        Netlist.Net.make ~id:!net_id ~name:(Printf.sprintf "eco_n%d" k) pins
        :: !new_nets;
      incr net_id)
    specs;
  let cells =
    Array.append c.Netlist.Circuit.cells
      (Array.of_list (List.rev !new_cells))
  in
  let nets =
    Array.append (Netlist.Circuit.nets c) (Array.of_list (List.rev !new_nets))
  in
  let circuit = rebuild c ~cells ~nets in
  let added = Array.of_list (List.rev !new_positions) in
  let x = Array.append p.Netlist.Placement.x (Array.map fst added) in
  let y = Array.append p.Netlist.Placement.y (Array.map snd added) in
  (circuit, { Netlist.Placement.x; y })

let replace ?hooks config circuit placement ~max_steps =
  let state = Placer.init config circuit placement in
  let reports = Placer.continue_run ?hooks state ~max_steps in
  (state.Placer.placement, reports)
