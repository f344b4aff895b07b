(* Unit and property tests for Numeric.Sparse. *)

let approx = Alcotest.float 1e-9

let test_empty () =
  let m = Numeric.Sparse.finalize (Numeric.Sparse.builder 3) in
  Alcotest.(check int) "dim" 3 (Numeric.Sparse.dim m);
  Alcotest.(check int) "nnz" 0 (Numeric.Sparse.nnz m)

let test_duplicates_summed () =
  let b = Numeric.Sparse.builder 2 in
  Numeric.Sparse.add b 0 1 2.;
  Numeric.Sparse.add b 0 1 3.;
  let m = Numeric.Sparse.finalize b in
  Alcotest.check approx "summed" 5. (Numeric.Sparse.entry m 0 1);
  Alcotest.(check int) "one entry" 1 (Numeric.Sparse.nnz m)

let test_zeros_dropped () =
  let b = Numeric.Sparse.builder 2 in
  Numeric.Sparse.add b 0 1 2.;
  Numeric.Sparse.add b 0 1 (-2.);
  let m = Numeric.Sparse.finalize b in
  Alcotest.(check int) "cancelled" 0 (Numeric.Sparse.nnz m)

let test_add_sym () =
  let b = Numeric.Sparse.builder 3 in
  Numeric.Sparse.add_sym b 0 2 4.;
  Numeric.Sparse.add_sym b 1 1 7.;
  let m = Numeric.Sparse.finalize b in
  Alcotest.check approx "(0,2)" 4. (Numeric.Sparse.entry m 0 2);
  Alcotest.check approx "(2,0)" 4. (Numeric.Sparse.entry m 2 0);
  Alcotest.check approx "diag once" 7. (Numeric.Sparse.entry m 1 1);
  Alcotest.(check bool) "symmetric" true (Numeric.Sparse.is_symmetric m)

let test_mul_known () =
  let m = Numeric.Sparse.of_dense [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let y = Array.make 2 0. in
  Numeric.Sparse.mul m [| 1.; 2. |] y;
  Alcotest.check approx "y0" 4. y.(0);
  Alcotest.check approx "y1" 7. y.(1)

let test_diagonal () =
  let m = Numeric.Sparse.of_dense [| [| 5.; 1. |]; [| 0.; 0. |] |] in
  let d = Numeric.Sparse.diagonal m in
  Alcotest.check approx "d0" 5. d.(0);
  Alcotest.check approx "d1 missing = 0" 0. d.(1)

let test_dense_roundtrip () =
  let a = [| [| 1.; 0.; 2. |]; [| 0.; 3.; 0. |]; [| 2.; 0.; 4. |] |] in
  let back = Numeric.Sparse.to_dense (Numeric.Sparse.of_dense a) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v -> Alcotest.check approx (Printf.sprintf "(%d,%d)" i j) v back.(i).(j))
        row)
    a

let test_out_of_range () =
  let b = Numeric.Sparse.builder 2 in
  Alcotest.check_raises "bad index" (Invalid_argument "Sparse.add: index out of range")
    (fun () -> Numeric.Sparse.add b 0 2 1.)

let test_builder_reuse_growth () =
  let b = Numeric.Sparse.builder 10 in
  for i = 0 to 9 do
    for j = 0 to 9 do
      Numeric.Sparse.add b i j (float_of_int ((i * 10) + j + 1))
    done
  done;
  let m = Numeric.Sparse.finalize b in
  Alcotest.(check int) "dense nnz" 100 (Numeric.Sparse.nnz m);
  Alcotest.check approx "corner" 100. (Numeric.Sparse.entry m 9 9)

(* Random sparse symmetric matrix as triplets. *)
let triplets_gen =
  QCheck.(
    list_of_size Gen.(int_range 1 60)
      (triple (int_bound 7) (int_bound 7) (float_range (-5.) 5.)))

let prop_mul_matches_dense =
  QCheck.Test.make ~name:"CSR mul matches dense mul" triplets_gen (fun ts ->
      let n = 8 in
      let b = Numeric.Sparse.builder n in
      let dense = Array.make_matrix n n 0. in
      List.iter
        (fun (i, j, v) ->
          Numeric.Sparse.add b i j v;
          dense.(i).(j) <- dense.(i).(j) +. v)
        ts;
      let m = Numeric.Sparse.finalize b in
      let x = Array.init n (fun i -> float_of_int (i + 1)) in
      let y = Array.make n 0. in
      Numeric.Sparse.mul m x y;
      let expected =
        Array.init n (fun i ->
            Array.fold_left ( +. ) 0. (Array.mapi (fun j v -> v *. x.(j)) dense.(i)))
      in
      Helpers.max_abs_diff expected y < 1e-6)

let prop_sym_builder_symmetric =
  QCheck.Test.make ~name:"add_sym yields symmetric matrix" triplets_gen
    (fun ts ->
      let b = Numeric.Sparse.builder 8 in
      List.iter (fun (i, j, v) -> Numeric.Sparse.add_sym b i j v) ts;
      Numeric.Sparse.is_symmetric (Numeric.Sparse.finalize b))

(* --- symbolic pattern + numeric refill ------------------------------- *)

let bits_equal_mat a b =
  let da = Numeric.Sparse.to_dense a and db = Numeric.Sparse.to_dense b in
  Array.length da = Array.length db
  && Array.for_all2
       (fun ra rb ->
         Array.for_all2
           (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           ra rb)
       da db

let bits_equal_sparse a b =
  Numeric.Sparse.nnz a = Numeric.Sparse.nnz b && bits_equal_mat a b

(* A stream of triplets, kept by the test so it can both feed it to the
   reference builder and record its pattern. *)
let reference n stream =
  let b = Numeric.Sparse.builder n in
  Array.iter (fun (i, j, v) -> Numeric.Sparse.add b i j v) stream;
  Numeric.Sparse.finalize b

(* The recording path of the QP assembly: count every triplet's row,
   then place every (i, j) in the same order, then merge.  Each row's
   slots must hold its columns strictly ascending, as [finalize]'s rows
   do: the dense comparisons below cannot see the order, but the
   product's accumulation order follows it. *)
let record n stream =
  let sh = Numeric.Sparse.shape n in
  Array.iter (fun (i, _, _) -> Numeric.Sparse.count sh i) stream;
  Array.iter (fun (i, j, _) -> Numeric.Sparse.place sh i j) stream;
  let pat = Numeric.Sparse.pattern sh in
  let sl = Numeric.Sparse.slots pat in
  for i = 0 to n - 1 do
    for s = sl.s_indptr.(i) + 1 to sl.s_indptr.(i + 1) - 1 do
      if sl.s_indices.(s - 1) >= sl.s_indices.(s) then
        Alcotest.failf "row %d: columns %d, %d out of order" i
          sl.s_indices.(s - 1) sl.s_indices.(s)
    done
  done;
  pat

(* The direct pass of the QP assembly: zero the pattern's slots, add
   each triplet's value at the slot of its stream position (checking
   that slot sits at the triplet's (i, j)), then seal. *)
let refill pat stream =
  let sl = Numeric.Sparse.slots pat in
  Alcotest.(check int) "stream length" (Array.length sl.s_slot) (Array.length stream);
  Array.fill sl.s_values 0 (Array.length sl.s_values) 0.;
  Array.iteri
    (fun k (i, j, v) ->
      let s = sl.s_slot.(k) in
      if s < sl.s_indptr.(i) || s >= sl.s_indptr.(i + 1) || sl.s_indices.(s) <> j
      then Alcotest.failf "triplet %d is not at (%d, %d)" k i j;
      sl.s_values.(s) <- sl.s_values.(s) +. v)
    stream;
  Numeric.Sparse.seal pat

(* A random stream over an n×n matrix, n up to 150: a few hundred
   triplets, a third of them repeating an earlier (i, j) and a tenth of
   the values exactly zero, so most rows stay empty and some slots
   cancel; with [long], 3000 more triplets in one row, whose columns
   span the whole matrix (hundreds of distinct columns, many repeats). *)
let random_stream ~n ~seed ~long =
  let rng = Numeric.Rng.create seed in
  let value () =
    if Numeric.Rng.int rng 10 = 0 then 0. else Numeric.Rng.uniform rng (-5.) 5.
  in
  let m = Numeric.Rng.int rng 400 in
  let ts = Array.make m (0, 0, 0.) in
  for k = 0 to m - 1 do
    let i, j =
      if k > 0 && Numeric.Rng.int rng 3 = 0 then
        let i, j, _ = ts.(Numeric.Rng.int rng k) in
        (i, j)
      else (Numeric.Rng.int rng n, Numeric.Rng.int rng n)
    in
    ts.(k) <- (i, j, value ())
  done;
  let row = Numeric.Rng.int rng n in
  let hub =
    if long then Array.init 3000 (fun _ -> (row, Numeric.Rng.int rng n, value ()))
    else [||]
  in
  Array.append ts hub

let prop_recorded_pattern =
  QCheck.Test.make ~count:200
    ~name:"recorded pattern = finalize, bitwise, slots at (i, j)"
    QCheck.(triple (int_range 1 150) small_nat bool)
    (fun (n, seed, long) ->
      let stream = random_stream ~n ~seed ~long in
      bits_equal_sparse (refill (record n stream) stream) (reference n stream))

let prop_refill_bitwise =
  QCheck.Test.make ~count:300
    ~name:"refill through cached pattern = finalize, bitwise"
    QCheck.(pair triplets_gen small_nat)
    (fun (ts, seed) ->
      QCheck.assume (ts <> []);
      let first = Array.of_list ts in
      let pat = record 8 first in
      let ok0 = bits_equal_mat (refill pat first) (reference 8 first) in
      (* Same (i,j) stream, fresh values — including exact zeros, to
         exercise the cancellation-compaction parity path. *)
      let rng = Numeric.Rng.create seed in
      let second =
        Array.map
          (fun (i, j, _) ->
            let v =
              if Numeric.Rng.int rng 4 = 0 then 0.
              else Numeric.Rng.uniform rng (-5.) 5.
            in
            (i, j, v))
          first
      in
      ok0 && bits_equal_mat (refill pat second) (reference 8 second))

(* A recorder sizes its storage once, from its tallies: a row placed
   more often than counted is refused, as is a pattern taken before
   every counted triplet is placed.  The pattern outlives its recorder
   and keeps working for later streams. *)
let test_recorder_sized_once () =
  let stream = [| (0, 1, 2.); (1, 2, 1.); (0, 1, 3.) |] in
  let sh = Numeric.Sparse.shape 3 in
  Array.iter (fun (i, _, _) -> Numeric.Sparse.count sh i) stream;
  Numeric.Sparse.place sh 0 1;
  Numeric.Sparse.place sh 1 2;
  Alcotest.check_raises "unfinished stream"
    (Invalid_argument "Sparse.pattern: fewer triplets placed than counted")
    (fun () -> ignore (Numeric.Sparse.pattern sh));
  Alcotest.check_raises "row overflow"
    (Invalid_argument "Sparse.place: more triplets in a row than counted")
    (fun () -> Numeric.Sparse.place sh 1 0);
  Alcotest.check_raises "count after place"
    (Invalid_argument "Sparse.count: the shape is being placed")
    (fun () -> Numeric.Sparse.count sh 0);
  let pat = record 3 stream in
  let m = refill pat stream in
  Alcotest.check approx "duplicates merged" 5. (Numeric.Sparse.entry m 0 1);
  let again = Array.map (fun (i, j, v) -> (i, j, 2. *. v)) stream in
  Alcotest.(check bool) "pattern outlives its recorder" true
    (bits_equal_mat (refill pat again) (reference 3 again))

let test_refill_cancellation () =
  let stream = [| (0, 1, 2.); (0, 1, 3.); (1, 2, 1.) |] in
  let pat = record 3 stream in
  Alcotest.(check int) "initial nnz" 2 (Numeric.Sparse.nnz (refill pat stream));
  let m2 = refill pat [| (0, 1, 2.); (0, 1, -2.); (1, 2, 5.) |] in
  Alcotest.(check int) "cancelled slot dropped" 1 (Numeric.Sparse.nnz m2);
  Alcotest.check approx "survivor" 5. (Numeric.Sparse.entry m2 1 2);
  (* The pattern survives a compaction: a later refill with
     non-cancelling values restores the full slot set. *)
  let m3 = refill pat [| (0, 1, 1.); (0, 1, 1.); (1, 2, 4.) |] in
  Alcotest.(check int) "slots restored" 2 (Numeric.Sparse.nnz m3);
  Alcotest.check approx "(0,1)" 2. (Numeric.Sparse.entry m3 0 1)

let test_refill_matches_finalize () =
  (* A random 700-row stream: the recorded and refilled matrices must be
     bitwise-identical to finalize. *)
  let n = 700 and m = 8000 in
  let rng = Numeric.Rng.create 11 in
  let ti = Array.init m (fun _ -> Numeric.Rng.int rng n) in
  let tj = Array.init m (fun _ -> Numeric.Rng.int rng n) in
  let stream seed =
    let vr = Numeric.Rng.create seed in
    let sym =
      Array.init m (fun k -> (ti.(k), tj.(k), Numeric.Rng.uniform vr (-2.) 2.))
      |> Array.to_list
      |> List.concat_map (fun (i, j, v) -> if i = j then [ (i, j, v) ] else [ (i, j, v); (j, i, v) ])
    in
    let diag = List.init n (fun i -> (i, i, Numeric.Rng.uniform vr 0.5 4.)) in
    Array.of_list (sym @ diag)
  in
  let first = stream 1 and second = stream 2 in
  let expected = reference n second in
  let pat = record n first in
  Alcotest.(check bool) "record" true
    (bits_equal_mat (refill pat first) (reference n first));
  Alcotest.(check bool) "refill" true (bits_equal_mat (refill pat second) expected)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "duplicates summed" `Quick test_duplicates_summed;
    Alcotest.test_case "zeros dropped" `Quick test_zeros_dropped;
    Alcotest.test_case "add_sym" `Quick test_add_sym;
    Alcotest.test_case "mul known" `Quick test_mul_known;
    Alcotest.test_case "diagonal" `Quick test_diagonal;
    Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "builder growth" `Quick test_builder_reuse_growth;
    QCheck_alcotest.to_alcotest prop_mul_matches_dense;
    QCheck_alcotest.to_alcotest prop_sym_builder_symmetric;
    Alcotest.test_case "refill cancellation parity" `Quick
      test_refill_cancellation;
    Alcotest.test_case "refill bitwise = finalize" `Quick
      test_refill_matches_finalize;
    QCheck_alcotest.to_alcotest prop_refill_bitwise;
    Alcotest.test_case "recorder sized once" `Quick test_recorder_sized_once;
    QCheck_alcotest.to_alcotest prop_recorded_pattern;
  ]
