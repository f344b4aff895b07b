type t = {
  placement : Netlist.Placement.t;
  abacus : Abacus.report;
  improve_moves : int;
  improve_delta : float;
  domino_moves : int;
  domino_delta : float;
}

let run ?(obstacles = []) circuit global =
  let abacus = Abacus.legalize circuit global ~extra_obstacles:obstacles () in
  let p = abacus.Abacus.placement in
  let improve_moves, improve_delta = Improve.run ~obstacles circuit p in
  let domino_moves, domino_delta = Domino.run ~obstacles circuit p in
  { placement = p; abacus; improve_moves; improve_delta; domino_moves;
    domino_delta }
