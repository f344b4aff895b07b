type result = {
  mixed : Mixed.result;
  circuit : Netlist.Circuit.t;
  chosen_ratios : (int * float) list;
}

let incident_hpwl (c : Netlist.Circuit.t) (p : Netlist.Placement.t) id =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun acc net_id ->
      if Hashtbl.mem seen net_id then acc
      else begin
        Hashtbl.add seen net_id ();
        acc
        +. Metrics.Wirelength.hpwl_net c ~x:p.Netlist.Placement.x
             ~y:p.Netlist.Placement.y net_id
      end)
    0.
    (Netlist.Circuit.nets_of_cell c id)

let reshape_blocks (c : Netlist.Circuit.t) (p : Netlist.Placement.t) ~ratios =
  if ratios = [] then invalid_arg "Flexible.reshape_blocks: no ratios";
  let rh = c.Netlist.Circuit.row_height in
  let chosen = ref [] in
  let cells =
    Array.map
      (fun (cl : Netlist.Cell.t) ->
        if cl.Netlist.Cell.kind = Netlist.Cell.Block && Netlist.Cell.movable cl
        then begin
          let area = Netlist.Cell.area cl in
          (* Candidate (w, h) per ratio = h/w, with h rounded up to whole
             rows and w adjusted to preserve area. *)
          let candidates =
            List.map
              (fun ratio ->
                if ratio <= 0. then invalid_arg "Flexible: non-positive ratio";
                let h_raw = sqrt (area *. ratio) in
                let h = rh *. Float.max 1. (Float.round (h_raw /. rh)) in
                let w = area /. h in
                (ratio, w, h))
              ratios
          in
          (* Pin offsets scale with the block shape: evaluating precisely
             would need per-shape pin maps, so compare at the block
             centre (offsets zeroed), which the generator's centred pins
             approximate. *)
          let best = ref None and best_cost = ref Float.infinity in
          List.iter
            (fun (ratio, w, h) ->
              (* Cost: incident net length with the block at its current
                 centre — shape affects it only through pin offsets, so
                 approximate with the half perimeter the block itself
                 adds: incident wires terminate somewhere on the block,
                 modelled as w/2 + h/2 extra per incident net. *)
              let base = incident_hpwl c p cl.Netlist.Cell.id in
              let fanout =
                float_of_int (Array.length (Netlist.Circuit.nets_of_cell c cl.Netlist.Cell.id))
              in
              let cost = base +. (fanout *. ((w /. 2.) +. (h /. 2.)) /. 2.) in
              if cost < !best_cost then begin
                best_cost := cost;
                best := Some (ratio, w, h)
              end)
            candidates;
          match !best with
          | Some (ratio, w, h) ->
            chosen := (cl.Netlist.Cell.id, ratio) :: !chosen;
            { cl with Netlist.Cell.width = w; Netlist.Cell.height = h }
          | None -> cl
        end
        else cl)
      c.Netlist.Circuit.cells
  in
  let circuit =
    Netlist.Circuit.make ~name:c.Netlist.Circuit.name ~cells
      ~nets:(Netlist.Circuit.nets c) ~region:c.Netlist.Circuit.region
      ~row_height:rh
  in
  (circuit, List.rev !chosen)

let place ?(ratios = [ 0.5; 1.0; 2.0 ]) config (c : Netlist.Circuit.t) placement =
  (* Phase 1: mixed global placement with the original shapes. *)
  let state, _ = Kraftwerk.Placer.run config c placement in
  let global = state.Kraftwerk.Placer.placement in
  (* Phase 2: reshape blocks at their global positions, then run the full
     mixed flow on the reshaped circuit starting from that placement. *)
  let circuit, chosen_ratios = reshape_blocks c global ~ratios in
  Result.map
    (fun mixed -> { mixed; circuit; chosen_ratios })
    (Mixed.place config circuit global)
