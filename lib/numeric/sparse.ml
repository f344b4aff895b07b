type t = {
  n : int;
  row_start : int array; (* length n + 1 *)
  col : int array;
  value : float array;
}

(* The reference assembler's triplets, newest first. *)
type builder = { bn : int; mutable triplets : (int * int * float) list }

let builder n =
  if n < 0 then invalid_arg "Sparse.builder: negative dimension";
  { bn = n; triplets = [] }

let add b i j v =
  if i < 0 || i >= b.bn || j < 0 || j >= b.bn then
    invalid_arg "Sparse.add: index out of range";
  b.triplets <- (i, j, v) :: b.triplets

let add_sym b i j v =
  add b i j v;
  if i <> j then add b j i v

let add_diag b i v = add b i i v

let finalize b =
  let n = b.bn and ts = Array.of_list (List.rev b.triplets) in
  let len = Array.length ts in
  (* Bucket the triplets by row, in triplet order. *)
  let row_start = Array.make (n + 1) 0 in
  Array.iter (fun (i, _, _) -> row_start.(i + 1) <- row_start.(i + 1) + 1) ts;
  for i = 1 to n do
    row_start.(i) <- row_start.(i) + row_start.(i - 1)
  done;
  let col = Array.make len 0 and value = Array.make len 0. in
  let cursor = Array.copy row_start in
  Array.iter
    (fun (i, j, v) ->
      let p = cursor.(i) in
      col.(p) <- j;
      value.(p) <- v;
      cursor.(i) <- p + 1)
    ts;
  (* Sort each row by column (stable insertion sort: rows are short),
     then sum each run of equal columns in triplet order, compacting in
     place and dropping sums of exactly zero. *)
  let w = ref 0 in
  for i = 0 to n - 1 do
    let lo = row_start.(i) and hi = row_start.(i + 1) in
    row_start.(i) <- !w;
    for p = lo + 1 to hi - 1 do
      let c = col.(p) and v = value.(p) in
      let q = ref p in
      while !q > lo && col.(!q - 1) > c do
        col.(!q) <- col.(!q - 1);
        value.(!q) <- value.(!q - 1);
        decr q
      done;
      col.(!q) <- c;
      value.(!q) <- v
    done;
    let p = ref lo in
    while !p < hi do
      let c = col.(!p) in
      let acc = ref 0. in
      while !p < hi && col.(!p) = c do
        acc := !acc +. value.(!p);
        incr p
      done;
      if !acc <> 0. then begin
        col.(!w) <- c;
        value.(!w) <- !acc;
        incr w
      end
    done
  done;
  row_start.(n) <- !w;
  { n; row_start; col = Array.sub col 0 !w; value = Array.sub value 0 !w }

(* ------------------------------------------------------------------ *)
(* Symbolic/numeric split: a [pattern] freezes the CSR structure and the
   triplet→slot map of one (i, j) stream, so every assembly of that
   stream only scatters values.  [finalize] sums a slot's triplets in
   triplet order (the per-row sort is stable), so scattering the stream
   in triplet order reproduces its sums bit for bit. *)

type slots = {
  s_slot : int array;
  s_indptr : int array;
  s_indices : int array;
  s_values : float array;
}

type pattern = {
  pn : int;
  sl : slots;
  p_matrix : t; (* merged CSR structure; its [value] is [sl.s_values] *)
}

let slots pat = pat.sl

(* [finalize] drops merged entries that sum to exactly zero; the frozen
   structure cannot, so on the (rare) cancellation the slots go through
   [finalize] once more — one add per slot, so the same bits. *)
let compact_zeros pat =
  let m = pat.p_matrix and b = builder pat.pn in
  for i = 0 to pat.pn - 1 do
    for s = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      add b i m.col.(s) m.value.(s)
    done
  done;
  finalize b

let seal pat =
  let v = pat.sl.s_values in
  let zero = ref false in
  for s = 0 to Array.length v - 1 do
    if v.(s) = 0. then zero := true
  done;
  if !zero then compact_zeros pat else pat.p_matrix

(* The shape recorder: a pass's (i, j) stream, replayed twice with no
   value kept.  [count] tallies each row's triplets; the first [place]
   turns the tallies into row segments, then each [place] writes its
   column into its row's segment and that position into the slot map;
   [pattern] merges each segment's columns into the row's slots. *)
type shape = {
  sh_n : int;
  sh_start : int array; (* n + 1 row tallies, then segment starts *)
  mutable sh_cursor : int array; (* each row's next segment position *)
  mutable sh_col : int array; (* each placed triplet's column, by segment *)
  mutable sh_slot : int array; (* triplet → segment position, then slot *)
  mutable sh_len : int; (* triplets counted *)
  mutable sh_placed : int; (* triplets placed; -1 while counting *)
}

let shape n =
  if n < 0 then invalid_arg "Sparse.shape: negative dimension";
  { sh_n = n; sh_start = Array.make (n + 1) 0; sh_cursor = [||]; sh_col = [||];
    sh_slot = [||]; sh_len = 0; sh_placed = -1 }

let count sh i =
  if sh.sh_placed >= 0 then invalid_arg "Sparse.count: the shape is being placed";
  if i < 0 || i >= sh.sh_n then invalid_arg "Sparse.count: row out of range";
  sh.sh_start.(i + 1) <- sh.sh_start.(i + 1) + 1;
  sh.sh_len <- sh.sh_len + 1

let start_placing sh =
  for i = 1 to sh.sh_n do
    sh.sh_start.(i) <- sh.sh_start.(i) + sh.sh_start.(i - 1)
  done;
  sh.sh_cursor <- Array.sub sh.sh_start 0 sh.sh_n;
  sh.sh_col <- Array.make sh.sh_len 0;
  sh.sh_slot <- Array.make sh.sh_len 0;
  sh.sh_placed <- 0

let place sh i j =
  if sh.sh_placed < 0 then start_placing sh;
  if i < 0 || i >= sh.sh_n || j < 0 || j >= sh.sh_n then
    invalid_arg "Sparse.place: index out of range";
  let p = sh.sh_cursor.(i) in
  if p = sh.sh_start.(i + 1) then
    invalid_arg "Sparse.place: more triplets in a row than counted";
  sh.sh_col.(p) <- j;
  sh.sh_slot.(sh.sh_placed) <- p;
  sh.sh_cursor.(i) <- p + 1;
  sh.sh_placed <- sh.sh_placed + 1

(* Sorts [a.(lo)] … [a.(hi - 1)]: insertion sort for a fine level's
   short rows; a coarse level's long rows, where insertion would turn
   quadratic, go through [Array.sort]. *)
let sort_range (a : int array) lo hi =
  if hi - lo > 32 then begin
    let row = Array.sub a lo (hi - lo) in
    Array.sort Int.compare row;
    Array.blit row 0 a lo (hi - lo)
  end
  else
    for p = lo + 1 to hi - 1 do
      let c = a.(p) in
      let q = ref p in
      while !q > lo && a.(!q - 1) > c do
        a.(!q) <- a.(!q - 1);
        decr q
      done;
      a.(!q) <- c
    done

let pattern sh =
  if sh.sh_placed < 0 then start_placing sh;
  if sh.sh_placed <> sh.sh_len then
    invalid_arg "Sparse.pattern: fewer triplets placed than counted";
  let n = sh.sh_n and start = sh.sh_start and seg = sh.sh_col in
  (* [mark] holds per column the last row it was met in (first sweep),
     then its slot in the current row (second sweep; an older row's
     slots lie below the current row's). *)
  let mark = Array.make n (-1) in
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_start.(i + 1) <- row_start.(i);
    for p = start.(i) to start.(i + 1) - 1 do
      if mark.(seg.(p)) <> i then begin
        mark.(seg.(p)) <- i;
        row_start.(i + 1) <- row_start.(i + 1) + 1
      end
    done
  done;
  let col = Array.make row_start.(n) 0 in
  Array.fill mark 0 n (-1);
  for i = 0 to n - 1 do
    let lo = row_start.(i) and w = ref row_start.(i) in
    for p = start.(i) to start.(i + 1) - 1 do
      if mark.(seg.(p)) < lo then begin
        mark.(seg.(p)) <- !w;
        col.(!w) <- seg.(p);
        incr w
      end
    done;
    sort_range col lo !w;
    for s = lo to !w - 1 do
      mark.(col.(s)) <- s
    done;
    for p = start.(i) to start.(i + 1) - 1 do
      seg.(p) <- mark.(seg.(p))
    done
  done;
  let slot = sh.sh_slot in
  for k = 0 to sh.sh_len - 1 do
    slot.(k) <- seg.(slot.(k))
  done;
  let value = Array.make row_start.(n) 0. in
  { pn = n;
    sl = { s_slot = slot; s_indptr = row_start; s_indices = col; s_values = value };
    p_matrix = { n; row_start; col; value } }

let dim m = m.n

let nnz m = Array.length m.col

let mul_rows m x y r0 r1 =
  for i = r0 to r1 - 1 do
    let acc = ref 0. in
    for p = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      acc := !acc +. (m.value.(p) *. x.(m.col.(p)))
    done;
    y.(i) <- !acc
  done

let mul_seq m x y =
  assert (Array.length x = m.n && Array.length y = m.n);
  mul_rows m x y 0 m.n

(* Rows are independent and each keeps its sequential accumulation
   order, so the row-chunked parallel product is bitwise-identical to
   [mul_seq] for any domain count.  Small systems stay on the caller:
   below the threshold task overhead swamps the work. *)
let mul_par_threshold = 512

let mul m x y =
  assert (Array.length x = m.n && Array.length y = m.n);
  if m.n >= mul_par_threshold && Parallel.num_domains () > 1 then
    Parallel.parallel_range
      ~chunk:(max 128 (m.n / (4 * Parallel.num_domains ())))
      ~work:m.row_start.(m.n) ~lo:0 ~hi:m.n
      (fun r0 r1 -> mul_rows m x y r0 r1)
  else mul_rows m x y 0 m.n

(* Two products in one row sweep: each row is read once and feeds both
   accumulators, each keeping [mul_rows]'s accumulation order. *)
let mul2_rows m xa ya xb yb r0 r1 =
  for i = r0 to r1 - 1 do
    let acc_a = ref 0. and acc_b = ref 0. in
    for p = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      let v = m.value.(p) and c = m.col.(p) in
      acc_a := !acc_a +. (v *. xa.(c));
      acc_b := !acc_b +. (v *. xb.(c))
    done;
    ya.(i) <- !acc_a;
    yb.(i) <- !acc_b
  done

let mul2 m xa ya xb yb =
  assert (Array.length xa = m.n && Array.length ya = m.n);
  assert (Array.length xb = m.n && Array.length yb = m.n);
  if m.n >= mul_par_threshold && Parallel.num_domains () > 1 then
    Parallel.parallel_range
      ~chunk:(max 128 (m.n / (4 * Parallel.num_domains ())))
      ~work:m.row_start.(m.n) ~lo:0 ~hi:m.n
      (fun r0 r1 -> mul2_rows m xa ya xb yb r0 r1)
  else mul2_rows m xa ya xb yb 0 m.n

let diagonal_into m d =
  if Array.length d <> m.n then
    invalid_arg "Sparse.diagonal_into: length mismatch";
  for i = 0 to m.n - 1 do
    d.(i) <- 0.;
    for p = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      if m.col.(p) = i then d.(i) <- m.value.(p)
    done
  done

let diagonal m =
  let d = Array.make m.n 0. in
  diagonal_into m d;
  d

let entry m i j =
  if i < 0 || i >= m.n || j < 0 || j >= m.n then
    invalid_arg "Sparse.entry: index out of range";
  let acc = ref 0. in
  for p = m.row_start.(i) to m.row_start.(i + 1) - 1 do
    if m.col.(p) = j then acc := m.value.(p)
  done;
  !acc

let is_symmetric ?(tol = 1e-9) m =
  let ok = ref true in
  for i = 0 to m.n - 1 do
    for p = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      let j = m.col.(p) in
      if Float.abs (m.value.(p) -. entry m j i) > tol then ok := false
    done
  done;
  !ok

let of_dense a =
  let n = Array.length a in
  let b = builder n in
  for i = 0 to n - 1 do
    if Array.length a.(i) <> n then invalid_arg "Sparse.of_dense: not square";
    for j = 0 to n - 1 do
      if a.(i).(j) <> 0. then add b i j a.(i).(j)
    done
  done;
  finalize b

let to_dense m =
  let a = Array.make_matrix m.n m.n 0. in
  for i = 0 to m.n - 1 do
    for p = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      a.(i).(m.col.(p)) <- m.value.(p)
    done
  done;
  a
