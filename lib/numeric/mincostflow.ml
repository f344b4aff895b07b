(* Kuhn–Munkres with row and column potentials over the dense matrix.
   Agents are rows 1 … n, objects columns 1 … m; column 0 is a dummy
   that holds the agent being inserted, so an augmenting path always
   starts there. *)

type workspace = {
  mutable row_pot : float array; (* by agent + 1 *)
  mutable col_pot : float array; (* by column *)
  mutable slack : float array; (* by column: least reduced cost into it from the tree *)
  mutable way : int array; (* by column: the column its least slack came through *)
  mutable owner : int array; (* by column: its agent + 1, or 0 *)
  mutable used : bool array; (* by column: on the alternating tree *)
}

let workspace () =
  { row_pot = [||]; col_pot = [||]; slack = [||]; way = [||]; owner = [||]; used = [||] }

let reserve ws ~agents ~objects =
  if Array.length ws.row_pot <= agents then ws.row_pot <- Array.make (agents + 1) 0.;
  if Array.length ws.col_pot <= objects then begin
    ws.col_pot <- Array.make (objects + 1) 0.;
    ws.slack <- Array.make (objects + 1) 0.;
    ws.way <- Array.make (objects + 1) 0;
    ws.owner <- Array.make (objects + 1) 0;
    ws.used <- Array.make (objects + 1) false
  end

let assign ws ~costs =
  let n = Array.length costs in
  if n = 0 then [||]
  else begin
    let m = Array.length costs.(0) in
    if n > m then invalid_arg "Mincostflow.assignment: more agents than objects";
    for i = 1 to n - 1 do
      if Array.length costs.(i) <> m then
        invalid_arg "Mincostflow.assignment: ragged cost matrix"
    done;
    reserve ws ~agents:n ~objects:m;
    let u = ws.row_pot and v = ws.col_pot and slack = ws.slack and way = ws.way in
    let owner = ws.owner and used = ws.used in
    Array.fill u 0 (n + 1) 0.;
    Array.fill v 0 (m + 1) 0.;
    Array.fill owner 0 (m + 1) 0;
    for i = 1 to n do
      owner.(0) <- i;
      Array.fill slack 0 (m + 1) Float.infinity;
      Array.fill used 0 (m + 1) false;
      (* Grow the alternating tree from column 0 until it reaches a free
         column.  Each round marks one more column, so a row takes at
         most m rounds whatever the float error in the potentials. *)
      let j0 = ref 0 in
      while owner.(!j0) <> 0 do
        used.(!j0) <- true;
        let i0 = owner.(!j0) in
        let row = costs.(i0 - 1) and ui = u.(i0) in
        let delta = ref Float.infinity and j1 = ref 0 in
        for j = 1 to m do
          if not used.(j) then begin
            let cur = row.(j - 1) -. ui -. v.(j) in
            if cur < slack.(j) then begin
              slack.(j) <- cur;
              way.(j) <- !j0
            end;
            if slack.(j) < !delta then begin
              delta := slack.(j);
              j1 := j
            end
          end
        done;
        if !j1 = 0 then failwith "Mincostflow.assignment: infeasible";
        let delta = !delta in
        for j = 0 to m do
          if used.(j) then begin
            u.(owner.(j)) <- u.(owner.(j)) +. delta;
            v.(j) <- v.(j) -. delta
          end
          else slack.(j) <- slack.(j) -. delta
        done;
        j0 := !j1
      done;
      (* Flip the path back to column 0. *)
      while !j0 <> 0 do
        let j1 = way.(!j0) in
        owner.(!j0) <- owner.(j1);
        j0 := j1
      done
    done;
    let result = Array.make n 0 in
    for j = 1 to m do
      if owner.(j) > 0 then result.(owner.(j) - 1) <- j - 1
    done;
    result
  end

let assignment ~costs = assign (workspace ()) ~costs
