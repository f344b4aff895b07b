type edge = { pin_a : int; pin_b : int; weight : float }

let iter_edges ~coord (c : Netlist.Circuit.t) n f =
  let s = c.Netlist.Circuit.net_start.(n) and e = c.Netlist.Circuit.net_start.(n + 1) in
  let k = e - s in
  if k = 2 then
    (* Two pins: the general weight 2/((k−1)·span) = 2/span, making the
       objective 2·span like every other degree (the model is uniformly
       twice the half perimeter at the linearisation point). *)
    f s (s + 1) (2. /. Float.max 1e-6 (Float.abs (coord s -. coord (s + 1))))
  else begin
    (* Find the boundary pins on this axis. *)
    let min_i = ref s and max_i = ref s in
    for p = s to e - 1 do
      if coord p < coord !min_i then min_i := p;
      if coord p > coord !max_i then max_i := p
    done;
    let span = coord !max_i -. coord !min_i in
    if span < 1e-6 then
      (* Degenerate: all pins coincide on this axis — clique fallback. *)
      Model.iter_edges c n f
    else begin
      let w_of a b =
        2. /. (float_of_int (k - 1) *. Float.max 1e-6 (Float.abs (coord a -. coord b)))
      in
      (* Boundary-to-boundary edge once, plus every interior pin to both
         boundaries. *)
      f !min_i !max_i (w_of !min_i !max_i);
      for p = s to e - 1 do
        if p <> !min_i && p <> !max_i then begin
          f p !min_i (w_of p !min_i);
          f p !max_i (w_of p !max_i)
        end
      done
    end
  end

let edges ~coord c n =
  let acc = ref [] in
  iter_edges ~coord c n (fun pin_a pin_b weight ->
      acc := { pin_a; pin_b; weight } :: !acc);
  List.rev !acc
