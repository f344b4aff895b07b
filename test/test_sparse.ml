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

let prop_refill_bitwise =
  QCheck.Test.make ~count:300
    ~name:"refill through cached pattern = finalize, bitwise"
    QCheck.(pair triplets_gen small_nat)
    (fun (ts, seed) ->
      QCheck.assume (ts <> []);
      let b = Numeric.Sparse.builder 8 in
      List.iter (fun (i, j, v) -> Numeric.Sparse.add b i j v) ts;
      let pat, m0 = Numeric.Sparse.compile b in
      let ok0 = bits_equal_mat m0 (Numeric.Sparse.finalize b) in
      (* Same (i,j) stream, fresh values — including exact zeros, to
         exercise the cancellation-compaction parity path. *)
      let rng = Numeric.Rng.create seed in
      Numeric.Sparse.clear b;
      List.iter
        (fun (i, j, _) ->
          let v =
            if Numeric.Rng.int rng 4 = 0 then 0.
            else Numeric.Rng.uniform rng (-5.) 5.
          in
          Numeric.Sparse.add b i j v)
        ts;
      ok0
      && Numeric.Sparse.pattern_matches pat b
      && bits_equal_mat (Numeric.Sparse.refill pat b) (Numeric.Sparse.finalize b))

let test_pattern_mismatch () =
  let b = Numeric.Sparse.builder 4 in
  Numeric.Sparse.add b 0 1 1.;
  Numeric.Sparse.add b 2 3 2.;
  let pat, _ = Numeric.Sparse.compile b in
  Alcotest.(check bool) "same stream matches" true
    (Numeric.Sparse.pattern_matches pat b);
  Numeric.Sparse.add b 1 1 3.;
  Alcotest.(check bool) "longer stream rejected" false
    (Numeric.Sparse.pattern_matches pat b);
  Numeric.Sparse.clear b;
  Numeric.Sparse.add b 0 1 1.;
  Numeric.Sparse.add b 3 2 2.;
  Alcotest.(check bool) "swapped indices rejected" false
    (Numeric.Sparse.pattern_matches pat b)

(* The structural check reads the pattern's CSR rather than a copy of
   the compiled stream's (i, j).  Here the test keeps that copy itself:
   after one mutation of a random stream — a triplet moved to another
   slot of its row, to a new column or to another row, swapped with its
   neighbour, the stream truncated or extended — [pattern_matches] must
   agree with comparing the stream against the copy. *)
let prop_pattern_matches_copy =
  QCheck.Test.make ~count:600
    ~name:"pattern_matches = comparison with a copy of the compiled stream"
    QCheck.(triple triplets_gen (int_bound 5) small_nat)
    (fun (ts, mutation, r) ->
      let n = 8 in
      let b = Numeric.Sparse.builder n in
      let load stream =
        Numeric.Sparse.clear b;
        Array.iter (fun (i, j) -> Numeric.Sparse.add b i j 1.) stream
      in
      let copy = Array.of_list (List.map (fun (i, j, _) -> (i, j)) ts) in
      load copy;
      let pat, _ = Numeric.Sparse.compile b in
      let len = Array.length copy in
      let k = r mod len in
      let i, j = copy.(k) in
      let other x = (x + 1 + (r mod (n - 1))) mod n in
      let m = Array.copy copy in
      let mutated =
        match mutation with
        | 0 ->
          let row_cols =
            Array.to_list copy
            |> List.filter_map (fun (i', j') ->
                   if i' = i && j' <> j then Some j' else None)
          in
          if row_cols <> [] then
            m.(k) <- (i, List.nth row_cols (r mod List.length row_cols));
          m
        | 1 ->
          m.(k) <- (i, other j);
          m
        | 2 ->
          m.(k) <- (other i, j);
          m
        | 3 ->
          if k + 1 < len then begin
            m.(k) <- m.(k + 1);
            m.(k + 1) <- (i, j)
          end;
          m
        | 4 -> Array.sub copy 0 k
        | _ -> Array.append copy [| copy.(k) |]
      in
      load mutated;
      Numeric.Sparse.pattern_matches pat b = (mutated = copy))

(* A recording assembler sizes its builder once and drops it after
   compiling; the pattern keeps working for later streams, which a
   builder of no capacity records by doubling from 16. *)
let test_builder_capacity () =
  let fill b =
    Numeric.Sparse.add b 0 1 2.;
    Numeric.Sparse.add b 1 2 1.;
    Numeric.Sparse.add b 0 1 3.;
    b
  in
  let b = fill (Numeric.Sparse.builder ~capacity:2 3) in
  let pat, m = Numeric.Sparse.compile b in
  Alcotest.check approx "grown past the capacity" 5. (Numeric.Sparse.entry m 0 1);
  let b = fill (Numeric.Sparse.builder ~capacity:0 3) in
  Alcotest.(check bool) "pattern outlives its builder" true
    (Numeric.Sparse.pattern_matches pat b);
  Alcotest.(check bool) "refill from a capacity-0 builder" true
    (bits_equal_mat (Numeric.Sparse.refill pat b) (Numeric.Sparse.finalize b))

let test_refill_cancellation () =
  let b = Numeric.Sparse.builder 3 in
  Numeric.Sparse.add b 0 1 2.;
  Numeric.Sparse.add b 0 1 3.;
  Numeric.Sparse.add b 1 2 1.;
  let pat, m = Numeric.Sparse.compile b in
  Alcotest.(check int) "initial nnz" 2 (Numeric.Sparse.nnz m);
  Numeric.Sparse.clear b;
  Numeric.Sparse.add b 0 1 2.;
  Numeric.Sparse.add b 0 1 (-2.);
  Numeric.Sparse.add b 1 2 5.;
  let m2 = Numeric.Sparse.refill pat b in
  Alcotest.(check int) "cancelled slot dropped" 1 (Numeric.Sparse.nnz m2);
  Alcotest.check approx "survivor" 5. (Numeric.Sparse.entry m2 1 2);
  (* The pattern survives a compaction: a later refill with
     non-cancelling values restores the full slot set. *)
  Numeric.Sparse.clear b;
  Numeric.Sparse.add b 0 1 1.;
  Numeric.Sparse.add b 0 1 1.;
  Numeric.Sparse.add b 1 2 4.;
  let m3 = Numeric.Sparse.refill pat b in
  Alcotest.(check int) "slots restored" 2 (Numeric.Sparse.nnz m3);
  Alcotest.check approx "(0,1)" 2. (Numeric.Sparse.entry m3 0 1)

let test_refill_parallel_domains () =
  (* Large enough to cross the parallel refill threshold; the result
     must be bitwise-identical to the sequential finalize at any pool
     size. *)
  let n = 700 and m = 8000 in
  let rng = Numeric.Rng.create 11 in
  let ti = Array.init m (fun _ -> Numeric.Rng.int rng n) in
  let tj = Array.init m (fun _ -> Numeric.Rng.int rng n) in
  let b = Numeric.Sparse.builder n in
  let fill seed =
    Numeric.Sparse.clear b;
    let vr = Numeric.Rng.create seed in
    for k = 0 to m - 1 do
      Numeric.Sparse.add_sym b ti.(k) tj.(k) (Numeric.Rng.uniform vr (-2.) 2.)
    done;
    for i = 0 to n - 1 do
      Numeric.Sparse.add_diag b i (Numeric.Rng.uniform vr 0.5 4.)
    done
  in
  fill 1;
  let pat, _ = Numeric.Sparse.compile b in
  fill 2;
  let reference = Numeric.Sparse.finalize b in
  Fun.protect
    ~finally:(fun () -> Numeric.Parallel.set_num_domains 1)
    (fun () ->
      List.iter
        (fun d ->
          Numeric.Parallel.set_num_domains d;
          Alcotest.(check bool)
            (Printf.sprintf "pattern holds at %d domains" d)
            true
            (Numeric.Sparse.pattern_matches pat b);
          Alcotest.(check bool)
            (Printf.sprintf "bitwise at %d domains" d)
            true
            (bits_equal_mat (Numeric.Sparse.refill pat b) reference))
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
    Alcotest.test_case "pattern mismatch detection" `Quick test_pattern_mismatch;
    Alcotest.test_case "refill cancellation parity" `Quick
      test_refill_cancellation;
    Alcotest.test_case "refill across domain pools" `Quick
      test_refill_parallel_domains;
    QCheck_alcotest.to_alcotest prop_refill_bitwise;
    QCheck_alcotest.to_alcotest prop_pattern_matches_copy;
    Alcotest.test_case "builder capacity" `Quick test_builder_capacity;
  ]
