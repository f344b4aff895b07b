(* Tests for the deterministic splitmix64 generator. *)

let test_deterministic () =
  let a = Numeric.Rng.create 42 and b = Numeric.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Numeric.Rng.int a 1000) (Numeric.Rng.int b 1000)
  done

let test_seeds_differ () =
  let a = Numeric.Rng.create 1 and b = Numeric.Rng.create 2 in
  let va = Array.init 10 (fun _ -> Numeric.Rng.int a 1_000_000) in
  let vb = Array.init 10 (fun _ -> Numeric.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (va <> vb)

let test_int_bounds () =
  let rng = Numeric.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Numeric.Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_int_bad_bound () =
  let rng = Numeric.Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: non-positive bound")
    (fun () -> ignore (Numeric.Rng.int rng 0))

let test_float_bounds () =
  let rng = Numeric.Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Numeric.Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let test_uniform_bounds () =
  let rng = Numeric.Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Numeric.Rng.uniform rng (-3.) (-1.) in
    Alcotest.(check bool) "in range" true (v >= -3. && v < -1.)
  done

let test_copy_independent () =
  let a = Numeric.Rng.create 6 in
  ignore (Numeric.Rng.int a 10);
  let b = Numeric.Rng.copy a in
  Alcotest.(check int) "copies agree" (Numeric.Rng.int a 1000) (Numeric.Rng.int b 1000)

let test_split_differs () =
  let a = Numeric.Rng.create 7 in
  let b = Numeric.Rng.split a in
  let va = Array.init 5 (fun _ -> Numeric.Rng.int a 1_000_000) in
  let vb = Array.init 5 (fun _ -> Numeric.Rng.int b 1_000_000) in
  Alcotest.(check bool) "split independent" true (va <> vb)

let test_shuffle_is_permutation () =
  let rng = Numeric.Rng.create 8 in
  let a = Array.init 50 Fun.id in
  Numeric.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_geometric () =
  let rng = Numeric.Rng.create 9 in
  let sum = ref 0 in
  for _ = 1 to 2000 do
    let v = Numeric.Rng.geometric rng 0.5 in
    Alcotest.(check bool) "non-negative" true (v >= 0);
    sum := !sum + v
  done;
  (* Mean of geometric(0.5) counting failures is 1. *)
  let mean = float_of_int !sum /. 2000. in
  Alcotest.(check bool) "mean near 1" true (mean > 0.8 && mean < 1.2)

let test_choose () =
  let rng = Numeric.Rng.create 10 in
  for _ = 1 to 100 do
    let v = Numeric.Rng.choose rng [| 1; 2; 3 |] in
    Alcotest.(check bool) "member" true (v >= 1 && v <= 3)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Numeric.Rng.choose rng [||]))

let test_bool_balanced () =
  let rng = Numeric.Rng.create 11 in
  let trues = ref 0 in
  for _ = 1 to 2000 do
    if Numeric.Rng.bool rng then incr trues
  done;
  Alcotest.(check bool) "roughly fair" true (!trues > 800 && !trues < 1200)

(* The first 32 draws of [int] (all 62 bits: bound [max_int]), [float]
   (every bit, printed in hex) and [bool], each from a fresh generator,
   as MD5s of their printed sequences.  Recorded when the state was a
   [mutable int64] field: every generated circuit, annealer run and
   Improve pass draws from these streams. *)
let stream_pins =
  [
    (0, "int", "0ba4903bf9b10a47520cddde094ce3fd");
    (0, "float", "0429532b857367dfedeb916b04c5c9ad");
    (0, "bool", "4b7dda8ff403145c4e1e7c5d0f30002d");
    (1, "int", "2156369e8563e7a3e3e9bdedf7df5afe");
    (1, "float", "fb06dc0f26367845365c881f4aaf477f");
    (1, "bool", "71a3f38bbb2dbe04bcbc8bf4b9650011");
    (42, "int", "22188da84c4466b2277ca60f468b385c");
    (42, "float", "a4e8704c3c2b83b8d681dc2ae261f892");
    (42, "bool", "a978788ef40e93f255abcbe8546a1c0c");
  ]

let test_stream_pins () =
  let draw = function
    | "int" -> fun g -> string_of_int (Numeric.Rng.int g max_int)
    | "float" -> fun g -> Printf.sprintf "%h" (Numeric.Rng.float g 1.0)
    | _ -> fun g -> string_of_bool (Numeric.Rng.bool g)
  in
  List.iter
    (fun (seed, kind, md5) ->
      let g = Numeric.Rng.create seed in
      let f = draw kind in
      let seq = String.concat ";" (List.init 32 (fun _ -> f g)) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d %s" seed kind)
        md5
        (Digest.to_hex (Digest.string seq)))
    stream_pins

(* A draw allocates nothing: the state is stored unboxed, and the
   64-bit value it returns never leaves the function as a box. *)
let test_draws_allocate_nothing () =
  let g = Numeric.Rng.create 3 in
  ignore (Numeric.Rng.int g 10);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Numeric.Rng.int g 1000))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1000 Rng.int calls allocate %.0f words, budget 8" words)
    true (words <= 8.)

let prop_int_uniformish =
  QCheck.Test.make ~name:"int bound respected for any seed" QCheck.small_int
    (fun seed ->
      let rng = Numeric.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Numeric.Rng.int rng 13 in
        if v < 0 || v >= 13 then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int bad bound" `Quick test_int_bad_bound;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "split differs" `Quick test_split_differs;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "geometric" `Quick test_geometric;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
    Alcotest.test_case "stream pins" `Quick test_stream_pins;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_int_uniformish;
  ]
