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

(* A stream of triplets, kept by the test so it can both record it into
   a builder and replay it through a compiled pattern. *)
let record ?capacity n stream =
  let b = Numeric.Sparse.builder ?capacity n in
  Array.iter (fun (i, j, v) -> Numeric.Sparse.add b i j v) stream;
  b

(* The refill path of the QP assembly: zero the pattern's slots, add
   each triplet's value at the slot of its stream position (checking
   that slot sits at the triplet's (i, j)), then seal. *)
let refill pat stream =
  let sl = Numeric.Sparse.slots pat in
  Alcotest.(check int) "stream length" sl.s_len (Array.length stream);
  Array.fill sl.s_values 0 (Array.length sl.s_values) 0.;
  Array.iteri
    (fun k (i, j, v) ->
      let s = sl.s_slot.(k) in
      if s < sl.s_indptr.(i) || s >= sl.s_indptr.(i + 1) || sl.s_indices.(s) <> j
      then Alcotest.failf "triplet %d is not at (%d, %d)" k i j;
      sl.s_values.(s) <- sl.s_values.(s) +. v)
    stream;
  Numeric.Sparse.seal pat

let prop_refill_bitwise =
  QCheck.Test.make ~count:300
    ~name:"refill through cached pattern = finalize, bitwise"
    QCheck.(pair triplets_gen small_nat)
    (fun (ts, seed) ->
      QCheck.assume (ts <> []);
      let first = Array.of_list ts in
      let b = record 8 first in
      let pat, m0 = Numeric.Sparse.compile b in
      let ok0 = bits_equal_mat m0 (Numeric.Sparse.finalize b) in
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
      ok0
      && bits_equal_mat (refill pat second)
           (Numeric.Sparse.finalize (record 8 second)))

(* A recording assembler sizes its builder once and drops it after
   compiling; the pattern keeps working for later streams. *)
let test_builder_capacity () =
  let stream = [| (0, 1, 2.); (1, 2, 1.); (0, 1, 3.) |] in
  let pat, m = Numeric.Sparse.compile (record ~capacity:2 3 stream) in
  Alcotest.check approx "grown past the capacity" 5. (Numeric.Sparse.entry m 0 1);
  let again = Array.map (fun (i, j, v) -> (i, j, 2. *. v)) stream in
  Alcotest.(check bool) "pattern outlives its builder" true
    (bits_equal_mat (refill pat again)
       (Numeric.Sparse.finalize (record ~capacity:0 3 again)))

let test_refill_cancellation () =
  let pat, m =
    Numeric.Sparse.compile (record 3 [| (0, 1, 2.); (0, 1, 3.); (1, 2, 1.) |])
  in
  Alcotest.(check int) "initial nnz" 2 (Numeric.Sparse.nnz m);
  let m2 = refill pat [| (0, 1, 2.); (0, 1, -2.); (1, 2, 5.) |] in
  Alcotest.(check int) "cancelled slot dropped" 1 (Numeric.Sparse.nnz m2);
  Alcotest.check approx "survivor" 5. (Numeric.Sparse.entry m2 1 2);
  (* The pattern survives a compaction: a later refill with
     non-cancelling values restores the full slot set. *)
  let m3 = refill pat [| (0, 1, 1.); (0, 1, 1.); (1, 2, 4.) |] in
  Alcotest.(check int) "slots restored" 2 (Numeric.Sparse.nnz m3);
  Alcotest.check approx "(0,1)" 2. (Numeric.Sparse.entry m3 0 1)

let test_refill_parallel_domains () =
  (* Large enough for the parallel product; the compiled and refilled
     matrices must be bitwise-identical to the sequential finalize at
     any pool size. *)
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
  let reference = Numeric.Sparse.finalize (record n second) in
  Fun.protect
    ~finally:(fun () -> Numeric.Parallel.set_num_domains 1)
    (fun () ->
      List.iter
        (fun d ->
          Numeric.Parallel.set_num_domains d;
          let pat, m1 = Numeric.Sparse.compile (record n first) in
          Alcotest.(check bool)
            (Printf.sprintf "compile at %d domains" d)
            true
            (bits_equal_mat m1 (Numeric.Sparse.finalize (record n first)));
          Alcotest.(check bool)
            (Printf.sprintf "bitwise at %d domains" d)
            true
            (bits_equal_mat (refill pat second) reference))
        [ 1; 2; 4 ])

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
    Alcotest.test_case "refill across domain pools" `Quick
      test_refill_parallel_domains;
    QCheck_alcotest.to_alcotest prop_refill_bitwise;
    Alcotest.test_case "builder capacity" `Quick test_builder_capacity;
  ]
