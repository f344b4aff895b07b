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

(* The checks of [make] on [k] pins, pins [a] and [b] ordered by
   [cmp a b]. *)
let check k cmp =
  if k < 2 then invalid_arg "Net.make: needs at least two pins";
  let duplicate = ref false in
  if k <= 16 then
    for a = 0 to k - 2 do
      for b = a + 1 to k - 1 do
        if cmp a b = 0 then duplicate := true
      done
    done
  else begin
    (* Sort pin indices; duplicates end up next to each other. *)
    let order = Array.init k Fun.id in
    Array.sort cmp order;
    for x = 1 to k - 1 do
      if cmp order.(x - 1) order.(x) = 0 then duplicate := true
    done
  end;
  if !duplicate then invalid_arg "Net.make: duplicate pin"

let make ~id ~name pins =
  check (Array.length pins) (fun a b -> compare_pin pins.(a) pins.(b));
  { id; name; pins }

let check_pins ~cell ~dx ~dy lo hi =
  check (hi - lo) (fun a b ->
      let a = lo + a and b = lo + b in
      let c = Int.compare cell.(a) cell.(b) in
      if c <> 0 then c
      else
        let c = Float.compare dx.(a) dx.(b) in
        if c <> 0 then c else Float.compare dy.(a) dy.(b))
