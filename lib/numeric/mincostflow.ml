(* Node numbering of an assignment with n agents and m objects, the
   layout of the flow graph it stands for: 0 = source, 1 … n = agents,
   n+1 … n+m = objects, n+m+1 = sink. *)

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* A binary min-heap of (distance, node) on parallel arrays, grown by
   doubling and reused by every Dijkstra round.  Sifting moves a hole
   instead of swapping, which leaves every entry where the swaps would:
   the pop order, ties included, is the classic swap heap's. *)
module Heap = struct
  type t = { mutable key : float array; mutable node : int array; mutable size : int }

  let create capacity =
    { key = Array.make capacity 0.; node = Array.make capacity 0; size = 0 }

  let[@inline] push h k v =
    if h.size = Array.length h.key then begin
      h.key <- grow h.key 0.;
      h.node <- grow h.node 0
    end;
    let key = h.key and node = h.node in
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && key.((!i - 1) / 2) > k do
      let p = (!i - 1) / 2 in
      key.(!i) <- key.(p);
      node.(!i) <- node.(p);
      i := p
    done;
    key.(!i) <- k;
    node.(!i) <- v

  (* Removes the minimum; read it from [key.(0)]/[node.(0)] first. *)
  let pop h =
    let key = h.key and node = h.node in
    let size = h.size - 1 in
    h.size <- size;
    let k = key.(size) and v = node.(size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i and smallest_key = ref k in
      if l < size && key.(l) < !smallest_key then begin
        smallest := l;
        smallest_key := key.(l)
      end;
      if r < size && key.(r) < !smallest_key then smallest := r;
      if !smallest = !i then continue := false
      else begin
        key.(!i) <- key.(!smallest);
        node.(!i) <- node.(!smallest);
        i := !smallest
      end
    done;
    key.(!i) <- k;
    node.(!i) <- v
end

type workspace = {
  mutable potential : float array; (* by node *)
  mutable dist : float array;
  mutable prev : int array; (* the node a shortest path arrives from, or -1 *)
  mutable assigned : int array; (* by agent: its object, or -1 *)
  mutable owner : int array; (* by object: its agent, or -1 *)
  heap : Heap.t;
}

let workspace () =
  {
    potential = [||];
    dist = [||];
    prev = [||];
    assigned = [||];
    owner = [||];
    heap = Heap.create 16;
  }

let reserve ws ~agents ~objects =
  let nodes = agents + objects + 2 in
  if Array.length ws.dist < nodes then begin
    ws.potential <- Array.make nodes 0.;
    ws.dist <- Array.make nodes 0.;
    ws.prev <- Array.make nodes 0
  end;
  if Array.length ws.assigned < agents then ws.assigned <- Array.make agents 0;
  if Array.length ws.owner < objects then ws.owner <- Array.make objects 0

(* Bellman–Ford relaxation of the edge u → v; true when it lowered v. *)
let[@inline] relax potential u v cost =
  if potential.(u) +. cost < potential.(v) -. 1e-12 then begin
    potential.(v) <- potential.(u) +. cost;
    true
  end
  else false

(* Dijkstra's scan of the residual edge u → v, [pu] and [d] being u's
   potential and distance.  The reduced cost is clamped at zero:
   accumulated float error in the potentials can make it
   infinitesimally negative, which would admit "improving" cycles and
   stall the search.  This is [Float.max 0.] (NaN kept, -0 to +0)
   without its sign-bit calls. *)
let[@inline] scan potential dist prev heap u pu d v cost =
  let rc = cost +. pu -. potential.(v) in
  let rc = if rc > 0. || rc <> rc then rc else 0. in
  let nd = d +. rc in
  if nd < dist.(v) -. 1e-12 then begin
    dist.(v) <- nd;
    prev.(v) <- u;
    Heap.push heap nd v
  end

(* Successive shortest paths over the dense layout.  It is the run of
   the generic solver on the graph whose edges were added source →
   agents, then agent × object row by row, then objects → sink, each
   with a reverse edge of the negated cost: Bellman–Ford relaxes the
   edges in that order, and Dijkstra scans each node's residual edges
   newest first — source: agents n−1 … 0; agent i: objects m−1 … 0,
   then back to the source; object j: the sink, then back to agents
   n−1 … 0; sink: back to objects m−1 … 0.  Reverse edges cost [-0.]
   where the forward cost is [0.].  Ties are therefore broken exactly
   as the graph run breaks them.

   Every capacity is one, so the flow is the matching itself: agent i
   sends flow to object [assigned.(i)] (and receives it from the source
   iff it has one), object j receives it from [owner.(j)] (and passes it
   to the sink iff it has one).  A residual edge exists forward where
   there is no flow and backward where there is. *)
let assign ws ~costs =
  let n = Array.length costs in
  if n = 0 then [||]
  else begin
    let m = Array.length costs.(0) in
    if n > m then invalid_arg "Mincostflow.assignment: more agents than objects";
    Array.iter
      (fun row ->
        if Array.length row <> m then
          invalid_arg "Mincostflow.assignment: ragged cost matrix")
      costs;
    reserve ws ~agents:n ~objects:m;
    let nodes = n + m + 2 in
    let source = 0 and sink = n + m + 1 in
    let potential = ws.potential and dist = ws.dist and prev = ws.prev in
    let assigned = ws.assigned and owner = ws.owner and heap = ws.heap in
    Array.fill potential 0 nodes 0.;
    Array.fill assigned 0 n (-1);
    Array.fill owner 0 m (-1);
    (* Bellman–Ford once to admit negative costs; at the start only the
       forward edges have capacity. *)
    let changed = ref true and rounds = ref 0 in
    while !changed && !rounds <= nodes do
      changed := false;
      incr rounds;
      for i = 0 to n - 1 do
        if relax potential source (1 + i) 0. then changed := true
      done;
      for i = 0 to n - 1 do
        let row = costs.(i) in
        for j = 0 to m - 1 do
          if relax potential (1 + i) (1 + n + j) row.(j) then changed := true
        done
      done;
      for j = 0 to m - 1 do
        if relax potential (1 + n + j) sink 0. then changed := true
      done
    done;
    if !changed then failwith "Mincostflow.assignment: negative cost cycle";
    let matched = ref 0 and continue = ref true in
    while !continue do
      (* Dijkstra on reduced costs. *)
      Array.fill dist 0 nodes Float.infinity;
      Array.fill prev 0 nodes (-1);
      dist.(source) <- 0.;
      heap.Heap.size <- 0;
      Heap.push heap 0. source;
      while heap.Heap.size > 0 do
        let d = heap.Heap.key.(0) and u = heap.Heap.node.(0) in
        Heap.pop heap;
        if d <= dist.(u) +. 1e-12 then begin
          let pu = potential.(u) in
          if u = source then begin
            for i = n - 1 downto 0 do
              if assigned.(i) < 0 then
                scan potential dist prev heap u pu d (1 + i) 0.
            done
          end
          else if u <= n then begin
            let row = costs.(u - 1) and a = assigned.(u - 1) in
            for j = m - 1 downto 0 do
              if j <> a then scan potential dist prev heap u pu d (1 + n + j) row.(j)
            done;
            if a >= 0 then scan potential dist prev heap u pu d source (-0.)
          end
          else if u < sink then begin
            let i = owner.(u - 1 - n) in
            if i < 0 then scan potential dist prev heap u pu d sink 0.
            else
              scan potential dist prev heap u pu d (1 + i)
                (-.costs.(i).(u - 1 - n))
          end
          else
            for j = m - 1 downto 0 do
              if owner.(j) >= 0 then
                scan potential dist prev heap u pu d (1 + n + j) (-0.)
            done
        end
      done;
      if dist.(sink) = Float.infinity then continue := false
      else begin
        for v = 0 to nodes - 1 do
          if dist.(v) < Float.infinity then
            potential.(v) <- potential.(v) +. dist.(v)
        done;
        (* The path carries one unit.  Walking it back, each agent →
           object edge becomes a match; each object → agent edge it
           crosses undoes a match whose agent and object both take a new
           partner from the neighbouring forward edges, and the source
           and sink edges follow the matching. *)
        let v = ref sink in
        while !v <> source do
          let u = prev.(!v) in
          if u >= 1 && u <= n && !v > n then begin
            assigned.(u - 1) <- !v - 1 - n;
            owner.(!v - 1 - n) <- u - 1
          end;
          v := u
        done;
        incr matched
      end
    done;
    if !matched < n then failwith "Mincostflow.assignment: infeasible";
    Array.sub assigned 0 n
  end

let assignment ~costs = assign (workspace ()) ~costs
