type pin = { cell : int; dx : float; dy : float }

type t = { id : int; name : string; pins : pin array }

(* Pins are the same under [compare] equality on (cell, dx, dy), as a
   [Hashtbl] keyed on that triple had them: [-0.] equals [0.] and a NaN
   offset equals a NaN offset. *)
let compare_pin p q =
  let c = Int.compare p.cell q.cell in
  if c <> 0 then c
  else
    let c = Float.compare p.dx q.dx in
    if c <> 0 then c else Float.compare p.dy q.dy

let make ~id ~name pins =
  let k = Array.length pins in
  if k < 2 then invalid_arg "Net.make: needs at least two pins";
  let duplicate = ref false in
  if k <= 16 then
    for a = 0 to k - 2 do
      for b = a + 1 to k - 1 do
        if compare_pin pins.(a) pins.(b) = 0 then duplicate := true
      done
    done
  else begin
    (* Sort pin indices; duplicates end up next to each other. *)
    let order = Array.init k Fun.id in
    Array.sort (fun a b -> compare_pin pins.(a) pins.(b)) order;
    for x = 1 to k - 1 do
      if compare_pin pins.(order.(x - 1)) pins.(order.(x)) = 0 then
        duplicate := true
    done
  end;
  if !duplicate then invalid_arg "Net.make: duplicate pin";
  { id; name; pins }
