type pin = { cell : int; dx : float; dy : float }

type t = { id : int; name : string; pins : pin array }

let make ~id ~name pins =
  if Array.length pins < 2 then invalid_arg "Net.make: needs at least two pins";
  let seen = Hashtbl.create (Array.length pins) in
  Array.iter
    (fun p ->
      let key = (p.cell, p.dx, p.dy) in
      if Hashtbl.mem seen key then invalid_arg "Net.make: duplicate pin";
      Hashtbl.add seen key ())
    pins;
  { id; name; pins }
