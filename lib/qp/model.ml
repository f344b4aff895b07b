type edge = { pin_a : int; pin_b : int; weight : float }

let total_weight k = float_of_int (k - 1) /. 2.

let iter_clique s k f =
  let w = 1. /. float_of_int k in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      f (s + i) (s + j) w
    done
  done

let iter_sampled rng s k f =
  (* Cycle through all pins guarantees connectivity; add k random chords
     for stiffness diversity.  Duplicate chords are harmless (weights
     sum).  The edge weight needs the final count, so buffer the index
     pairs (at most 2k of them) before emitting. *)
  let order = Array.init k Fun.id in
  Numeric.Rng.shuffle rng order;
  let ia = Array.make (2 * k) 0 and ib = Array.make (2 * k) 0 in
  let m = ref 0 in
  let add i j =
    ia.(!m) <- i;
    ib.(!m) <- j;
    incr m
  in
  for i = 0 to k - 1 do
    add order.(i) order.((i + 1) mod k)
  done;
  for _ = 1 to k do
    let i = Numeric.Rng.int rng k in
    let j = Numeric.Rng.int rng k in
    if i <> j then add i j
  done;
  let w = total_weight k /. float_of_int !m in
  for p = 0 to !m - 1 do
    f (s + ia.(p)) (s + ib.(p)) w
  done

let iter_edges ?(cap = 16) ?rng (c : Netlist.Circuit.t) n f =
  let s = c.Netlist.Circuit.net_start.(n) and k = Netlist.Circuit.degree c n in
  if k <= cap then iter_clique s k f
  else begin
    let rng =
      match rng with Some r -> r | None -> Numeric.Rng.create (n + 7919)
    in
    iter_sampled rng s k f
  end

let edges ?cap ?rng c n =
  let acc = ref [] in
  iter_edges ?cap ?rng c n (fun pin_a pin_b weight ->
      acc := { pin_a; pin_b; weight } :: !acc);
  List.rev !acc
