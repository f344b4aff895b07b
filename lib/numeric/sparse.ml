type t = {
  n : int;
  row_start : int array; (* length n + 1 *)
  col : int array;
  value : float array;
}

type builder = {
  bn : int;
  mutable bi : int array;
  mutable bj : int array;
  mutable bv : float array;
  mutable len : int;
}

let builder ?(capacity = 16) n =
  if n < 0 then invalid_arg "Sparse.builder: negative dimension";
  let ints () = Array.make capacity 0 in
  { bn = n; bi = ints (); bj = ints (); bv = Array.make capacity 0.; len = 0 }

let ensure_capacity b =
  if b.len = Array.length b.bi then begin
    let cap = max 16 (2 * Array.length b.bi) in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.bi <- grow b.bi 0;
    b.bj <- grow b.bj 0;
    b.bv <- grow b.bv 0.
  end

let add b i j v =
  if i < 0 || i >= b.bn || j < 0 || j >= b.bn then
    invalid_arg "Sparse.add: index out of range";
  ensure_capacity b;
  b.bi.(b.len) <- i;
  b.bj.(b.len) <- j;
  b.bv.(b.len) <- v;
  b.len <- b.len + 1

let add_sym b i j v =
  add b i j v;
  if i <> j then add b j i v

let add_diag b i v = add b i i v

let finalize b =
  let n = b.bn in
  (* Count entries per row, prefix-sum into row_start, then scatter.
     Duplicates are merged afterwards by compacting sorted rows. *)
  let count = Array.make (n + 1) 0 in
  for k = 0 to b.len - 1 do
    count.(b.bi.(k) + 1) <- count.(b.bi.(k) + 1) + 1
  done;
  for i = 1 to n do
    count.(i) <- count.(i) + count.(i - 1)
  done;
  let row_start = Array.copy count in
  let col = Array.make b.len 0 in
  let value = Array.make b.len 0. in
  let cursor = Array.copy row_start in
  for k = 0 to b.len - 1 do
    let i = b.bi.(k) in
    let p = cursor.(i) in
    col.(p) <- b.bj.(k);
    value.(p) <- b.bv.(k);
    cursor.(i) <- p + 1
  done;
  (* Sort each row by column (insertion sort: rows are short) and merge
     duplicates in place. *)
  let out_col = Array.make b.len 0 in
  let out_val = Array.make b.len 0. in
  let out_start = Array.make (n + 1) 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    out_start.(i) <- !w;
    let lo = row_start.(i) and hi = cursor.(i) in
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
        out_col.(!w) <- c;
        out_val.(!w) <- !acc;
        incr w
      end
    done
  done;
  out_start.(n) <- !w;
  {
    n;
    row_start = out_start;
    col = Array.sub out_col 0 !w;
    value = Array.sub out_val 0 !w;
  }

(* ------------------------------------------------------------------ *)
(* Symbolic/numeric split: a [pattern] freezes the CSR structure and the
   triplet→slot map of one builder state so later assemblies with the
   same (i, j) stream skip the sort-and-dedup entirely and only scatter
   values.  [finalize] sums a slot's triplets in triplet order (the
   per-row sort is stable), so scattering the stream in triplet order
   reproduces its sums bit for bit. *)

type slots = {
  s_len : int;
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
   structure cannot, so on the (rare) cancellation we compact into a
   fresh CSR to stay bitwise-identical to a from-scratch finalize. *)
let compact_zeros pat =
  let n = pat.pn and m = pat.p_matrix in
  let keep = ref 0 in
  for s = 0 to Array.length m.value - 1 do
    if m.value.(s) <> 0. then incr keep
  done;
  let row_start = Array.make (n + 1) 0 in
  let col = Array.make !keep 0 in
  let value = Array.make !keep 0. in
  let w = ref 0 in
  for i = 0 to n - 1 do
    row_start.(i) <- !w;
    for s = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      if m.value.(s) <> 0. then begin
        col.(!w) <- m.col.(s);
        value.(!w) <- m.value.(s);
        incr w
      end
    done
  done;
  row_start.(n) <- !w;
  { n; row_start; col; value }

let seal pat =
  let v = pat.sl.s_values in
  let zero = ref false in
  for s = 0 to Array.length v - 1 do
    if v.(s) = 0. then zero := true
  done;
  if !zero then compact_zeros pat else pat.p_matrix

let compile b =
  let n = b.bn in
  let len = b.len in
  (* Two stable counting passes over the triplet indices, by column and
     then by row, leave each row's triplets sorted by column with equal
     columns in triplet order — the accumulation order [finalize]'s
     stable per-row sort gives.  [cursor] serves both passes. *)
  let cursor = Array.make (n + 1) 0 in
  for k = 0 to len - 1 do
    cursor.(b.bj.(k) + 1) <- cursor.(b.bj.(k) + 1) + 1
  done;
  for i = 1 to n do
    cursor.(i) <- cursor.(i) + cursor.(i - 1)
  done;
  let by_col = Array.make len 0 in
  for k = 0 to len - 1 do
    let c = b.bj.(k) in
    by_col.(cursor.(c)) <- k;
    cursor.(c) <- cursor.(c) + 1
  done;
  let tri_start = Array.make (n + 1) 0 in
  for k = 0 to len - 1 do
    tri_start.(b.bi.(k) + 1) <- tri_start.(b.bi.(k) + 1) + 1
  done;
  for i = 1 to n do
    tri_start.(i) <- tri_start.(i) + tri_start.(i - 1)
  done;
  Array.blit tri_start 0 cursor 0 (n + 1);
  let tof = Array.make len 0 in
  for p = 0 to len - 1 do
    let k = by_col.(p) in
    let r = b.bi.(k) in
    tof.(cursor.(r)) <- k;
    cursor.(r) <- cursor.(r) + 1
  done;
  (* Merge runs of equal columns into slots, recording each triplet's
     slot by its original index.  [tof] holds every triplet index once,
     so the merge overwrites all of [by_col]: it becomes the slot map. *)
  let slot = by_col in
  let row_start = Array.make (n + 1) 0 in
  let col_buf = Array.make len 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    row_start.(i) <- !w;
    let hi = tri_start.(i + 1) in
    let p = ref tri_start.(i) in
    while !p < hi do
      let c = b.bj.(tof.(!p)) in
      col_buf.(!w) <- c;
      while !p < hi && b.bj.(tof.(!p)) = c do
        slot.(tof.(!p)) <- !w;
        incr p
      done;
      incr w
    done
  done;
  row_start.(n) <- !w;
  (* Scatter the values in triplet order, as every later pass does
     through [slots]. *)
  let values = Array.make !w 0. in
  for k = 0 to len - 1 do
    values.(slot.(k)) <- values.(slot.(k)) +. b.bv.(k)
  done;
  let col = Array.sub col_buf 0 !w in
  let pat =
    {
      pn = n;
      sl =
        { s_len = len; s_slot = slot; s_indptr = row_start; s_indices = col;
          s_values = values };
      p_matrix = { n; row_start; col; value = values };
    }
  in
  (pat, seal pat)


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
