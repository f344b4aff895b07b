type t = { order : int array; start : int array; items : int array }

let by_key ~size n key =
  let index = Hashtbl.create size in
  let group = Array.make n 0 in
  for i = 0 to n - 1 do
    let k = key i in
    group.(i) <-
      (match Hashtbl.find index k with
      | g -> g
      | exception Not_found ->
        let g = Hashtbl.length index in
        Hashtbl.add index k g;
        g)
  done;
  let groups = Hashtbl.length index in
  let start = Array.make (groups + 1) 0 in
  Array.iter (fun g -> start.(g + 1) <- start.(g + 1) + 1) group;
  for g = 1 to groups do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  let items = Array.make n 0 and cursor = Array.sub start 0 groups in
  (* Newest first within a group: the order of a prepended list. *)
  for i = n - 1 downto 0 do
    let g = group.(i) in
    items.(cursor.(g)) <- i;
    cursor.(g) <- cursor.(g) + 1
  done;
  (* The index holds the same keys, added in the same order and from the
     same initial size, as the table of lists it replaces, so it
     enumerates them in that table's order. *)
  let order = Array.make groups 0 and k = ref 0 in
  Hashtbl.iter
    (fun _ g ->
      order.(!k) <- g;
      incr k)
    index;
  { order; start; items }
