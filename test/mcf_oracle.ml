(* A generic min-cost-flow solver on an explicit graph, kept as the
   reference for [Numeric.Mincostflow]: successive shortest paths with
   forward-star adjacency (newest edge first), Bellman–Ford in
   edge-insertion order, and Dijkstra on a binary heap with 1e-12
   tolerances and the reduced cost clamped at zero.  It shares no code
   with the dense Kuhn–Munkres solver, so agreeing on the optimal total
   is independent evidence; among tied optima the two may choose
   differently. *)

type t = {
  n : int;
  (* Edges as growable parallel arrays; edge i and i lxor 1 are a
     forward/backward pair. *)
  mutable dst : int array;
  mutable cap : int array;
  mutable cost : float array;
  mutable next : int array; (* next edge out of the same node, or -1 *)
  mutable len : int;
  head : int array; (* latest edge out of each node, or -1 *)
  mutable solved : bool;
}

type edge = int

let create n =
  {
    n;
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    cost = Array.make 16 0.;
    next = Array.make 16 (-1);
    len = 0;
    head = Array.make n (-1);
    solved = false;
  }

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Out-edges form a forward-star list headed at [head]: each new edge
   goes first, so [solve] scans a node's edges newest first. *)
let push g src dst cap cost =
  if g.len = Array.length g.dst then begin
    g.dst <- grow g.dst 0;
    g.cap <- grow g.cap 0;
    g.cost <- grow g.cost 0.;
    g.next <- grow g.next (-1)
  end;
  let e = g.len in
  g.dst.(e) <- dst;
  g.cap.(e) <- cap;
  g.cost.(e) <- cost;
  g.next.(e) <- g.head.(src);
  g.head.(src) <- e;
  g.len <- e + 1

let add_edge g ~src ~dst ~capacity ~cost =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Mcf_oracle.add_edge: node out of range";
  if capacity < 0 then invalid_arg "Mcf_oracle.add_edge: negative capacity";
  let e = g.len in
  push g src dst capacity cost;
  push g dst src 0 (-.cost);
  e

(* A binary min-heap of (distance, node) on parallel arrays, grown by
   doubling and reused by every Dijkstra round of one [solve]. *)
module Heap = struct
  type t = { mutable key : float array; mutable node : int array; mutable size : int }

  let create capacity =
    { key = Array.make capacity 0.; node = Array.make capacity 0; size = 0 }

  let swap h i j =
    let k = h.key.(i) and v = h.node.(i) in
    h.key.(i) <- h.key.(j);
    h.node.(i) <- h.node.(j);
    h.key.(j) <- k;
    h.node.(j) <- v

  let[@inline] push h key node =
    if h.size = Array.length h.key then begin
      h.key <- grow h.key 0.;
      h.node <- grow h.node 0
    end;
    h.key.(h.size) <- key;
    h.node.(h.size) <- node;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.key.((!i - 1) / 2) > h.key.(!i) do
      let p = (!i - 1) / 2 in
      swap h p !i;
      i := p
    done

  (* Removes the minimum; read it from [key.(0)]/[node.(0)] first. *)
  let pop h =
    h.size <- h.size - 1;
    h.key.(0) <- h.key.(h.size);
    h.node.(0) <- h.node.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.key.(l) < h.key.(!smallest) then smallest := l;
      if r < h.size && h.key.(r) < h.key.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done
end

let solve g ~source ~sink ?(max_flow = max_int) () =
  if g.solved then invalid_arg "Mcf_oracle.solve: already solved";
  g.solved <- true;
  (* The edge arrays are final once solving starts. *)
  let dst = g.dst and cap = g.cap and cost = g.cost and next = g.next in
  let potential = Array.make g.n 0. in
  (* Bellman–Ford once to admit negative edge costs. *)
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds <= g.n do
    changed := false;
    incr rounds;
    for e = 0 to g.len - 1 do
      if cap.(e) > 0 then begin
        let u = dst.(e lxor 1) and v = dst.(e) in
        if potential.(u) +. cost.(e) < potential.(v) -. 1e-12 then begin
          potential.(v) <- potential.(u) +. cost.(e);
          changed := true
        end
      end
    done
  done;
  if !changed then failwith "Mcf_oracle.solve: negative cost cycle";
  let dist = Array.make g.n Float.infinity in
  let prev_edge = Array.make g.n (-1) in
  let heap = Heap.create (max 16 g.n) in
  let total_flow = ref 0 and total_cost = ref 0. in
  let continue = ref true in
  while !continue && !total_flow < max_flow do
    (* Dijkstra on reduced costs. *)
    Array.fill dist 0 g.n Float.infinity;
    Array.fill prev_edge 0 g.n (-1);
    dist.(source) <- 0.;
    heap.Heap.size <- 0;
    Heap.push heap 0. source;
    while heap.Heap.size > 0 do
      let d = heap.Heap.key.(0) and u = heap.Heap.node.(0) in
      Heap.pop heap;
      if d <= dist.(u) +. 1e-12 then begin
        let e = ref g.head.(u) in
        while !e >= 0 do
          if cap.(!e) > 0 then begin
            let v = dst.(!e) in
            (* Clamp the reduced cost at zero: accumulated float error
               in the potentials can make it infinitesimally negative,
               which would admit "improving" cycles and stall the
               search.  Exact reduced costs of shortest-path-tree edges
               are zero, so the clamp preserves optimality up to float
               precision.  This is [Float.max 0.] (NaN kept, -0 to +0)
               without its sign-bit calls. *)
            let rc = cost.(!e) +. potential.(u) -. potential.(v) in
            let rc = if rc > 0. || Float.is_nan rc then rc else 0. in
            let nd = d +. rc in
            if nd < dist.(v) -. 1e-12 then begin
              dist.(v) <- nd;
              prev_edge.(v) <- !e;
              Heap.push heap nd v
            end
          end;
          e := next.(!e)
        done
      end
    done;
    if dist.(sink) = Float.infinity then continue := false
    else begin
      for v = 0 to g.n - 1 do
        if dist.(v) < Float.infinity then
          potential.(v) <- potential.(v) +. dist.(v)
      done;
      (* Bottleneck along the path. *)
      let bottleneck = ref (max_flow - !total_flow) in
      let v = ref sink in
      while !v <> source do
        let e = prev_edge.(!v) in
        if cap.(e) < !bottleneck then bottleneck := cap.(e);
        v := dst.(e lxor 1)
      done;
      let v = ref sink in
      while !v <> source do
        let e = prev_edge.(!v) in
        cap.(e) <- cap.(e) - !bottleneck;
        cap.(e lxor 1) <- cap.(e lxor 1) + !bottleneck;
        total_cost := !total_cost +. (float_of_int !bottleneck *. cost.(e));
        v := dst.(e lxor 1)
      done;
      total_flow := !total_flow + !bottleneck
    end
  done;
  (!total_flow, !total_cost)

let flow g e =
  (* Flow pushed forward equals the residual capacity of the reverse
     edge. *)
  g.cap.(e lxor 1)

(* The assignment as a flow graph: source → agents, agents → objects,
   objects → sink, added in that order. *)
let assignment ~costs =
  let n_agents = Array.length costs in
  if n_agents = 0 then [||]
  else begin
    let n_objects = Array.length costs.(0) in
    let g = create (n_agents + n_objects + 2) in
    let source = 0 and sink = n_agents + n_objects + 1 in
    for i = 0 to n_agents - 1 do
      ignore (add_edge g ~src:source ~dst:(1 + i) ~capacity:1 ~cost:0.)
    done;
    let handles = Array.make (n_agents * n_objects) 0 in
    for i = 0 to n_agents - 1 do
      for j = 0 to n_objects - 1 do
        handles.((i * n_objects) + j) <-
          add_edge g ~src:(1 + i) ~dst:(1 + n_agents + j) ~capacity:1
            ~cost:costs.(i).(j)
      done
    done;
    for j = 0 to n_objects - 1 do
      ignore (add_edge g ~src:(1 + n_agents + j) ~dst:sink ~capacity:1 ~cost:0.)
    done;
    let pushed, _ = solve g ~source ~sink () in
    if pushed < n_agents then failwith "Mcf_oracle.assignment: infeasible";
    let result = Array.make n_agents (-1) in
    for i = 0 to n_agents - 1 do
      for j = 0 to n_objects - 1 do
        if flow g handles.((i * n_objects) + j) > 0 then result.(i) <- j
      done
    done;
    result
  end
