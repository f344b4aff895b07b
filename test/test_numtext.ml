(* Numtext: the [%d]/[%.17g] text behind the .ckt/.pos writers and
   Obs.Json, checked against Printf byte for byte. *)

let text add v =
  let buf = Buffer.create 32 in
  add buf v;
  Buffer.contents buf

let check_float v =
  let want = Printf.sprintf "%.17g" v in
  let got = text Numtext.add_float v in
  if got <> want then Alcotest.failf "%h: wrote %S, Printf writes %S" v got want

(* Fixed-seed draws from every region of the format: any bit pattern
   (NaN payloads, subnormals and the infinities included), [-10, 10],
   [0, 1e-9], short decimals, k/16 (not integers: the C fallback),
   integers on both sides of 2^53 and of 1e17, and random exponents. *)
let test_sweep () =
  let rng = Random.State.make [| 2010 |] in
  let classes =
    [|
      (fun () -> Int64.float_of_bits (Random.State.bits64 rng));
      (fun () -> Random.State.float rng 20. -. 10.);
      (fun () -> Random.State.float rng 1e-9);
      (fun () ->
        float_of_string
          (string_of_int (Random.State.int rng 100_000)
          ^ "." ^ string_of_int (Random.State.int rng 1000)));
      (fun () -> float_of_int (Random.State.int rng 1_000_000 - 500_000) /. 16.);
      (fun () ->
        9007199254740992. +. float_of_int (Random.State.int rng 2_000_000 - 1_000_000));
      (fun () -> 1e17 +. (16. *. float_of_int (Random.State.int rng 2000 - 1000)));
      (fun () ->
        Float.ldexp (Random.State.float rng 1.) (Random.State.int rng 2200 - 1100));
      (fun () -> Int64.float_of_bits (Random.State.int64 rng 0x10_0000_0000_0000L));
    |]
  in
  let n = 225_000 in
  for i = 0 to n - 1 do
    let v = classes.(i mod Array.length classes) () in
    check_float v;
    check_float (-.v)
  done;
  List.iter check_float
    [
      0.; -0.; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
      5e-324; Float.min_float; Float.pred Float.min_float; 0x1p-1019;
      Float.pred 0x1p-1019; Float.max_float; Float.epsilon; 1.; 0.5; 0.1;
      9007199254740993.; 4.6e18; 9.3e18; 1e300;
    ]

(* The round-up that carries through a run of nines (into a new leading
   digit for 1e-14 and 1e98, whose doubles lie just below the power),
   and the layout's switch points between fixed and exponent form. *)
let test_explicit_cases () =
  List.iter
    (fun (v, want) ->
      Alcotest.(check string) (Printf.sprintf "%h" v) want (text Numtext.add_float v);
      check_float v)
    [
      (0.0014, "0.0014");
      (-0.0014, "-0.0014");
      (0.019, "0.019");
      (2.7e-06, "2.7e-06");
      (1e-14, "1e-14");
      (1e98, "1e+98");
      (-1e98, "-1e+98");
      (Float.pred 1e-4, "9.9999999999999991e-05");
      (1e-4, "0.0001");
      (1e-5, "1.0000000000000001e-05");
      (Float.pred 1e17, "99999999999999984");
      (1e17, "1e+17");
      (1.2345678901234568e17, "1.2345678901234568e+17");
      (-0., "-0");
      (0., "0");
      (123456., "123456");
      (-2.5, "-2.5");
    ]

let test_ints () =
  List.iter
    (fun i ->
      Alcotest.(check string) (string_of_int i) (Printf.sprintf "%d" i)
        (text Numtext.add_int i))
    [
      0; 1; -1; 9; 10; 99; 100; 12345; -12345; 99_999_999; 100_000_000;
      1_000_000_000_000_000_000; max_int; min_int; min_int + 1;
    ]

(* Each cached power against the C library's reading of "1e<k>": the
   64-bit significand rounded once to a double (the low bit kept as a
   sticky bit) is within one ulp of it. *)
let test_cached_powers () =
  let powers = Numtext.cached_powers () in
  Alcotest.(check int) "entries" 77 (List.length powers);
  List.iteri
    (fun i (k, f, e) ->
      Alcotest.(check int) "decimal exponent" (-300 + (8 * i)) k;
      Alcotest.(check bool) (Printf.sprintf "1e%d: top bit set" k) true
        (Int64.compare f 0L < 0);
      let half = Int64.(logor (shift_right_logical f 1) (logand f 1L)) in
      let got = Float.ldexp (Int64.to_float half) (e + 1) in
      let want = float_of_string ("1e" ^ string_of_int k) in
      if Float.abs (got -. want) > Float.succ want -. want then
        Alcotest.failf "1e%d: table %h, float_of_string %h" k got want)
    powers

(* Into a buffer with room, the integer and Grisu paths allocate
   nothing: the minor words that remain are the C fallback's strings,
   about one value in a hundred here. *)
let test_no_allocation () =
  let rng = Random.State.make [| 7 |] in
  let values =
    List.init 4000 (fun i ->
        if i mod 4 = 0 then float_of_int (Random.State.int rng 100_000)
        else Random.State.float rng 200. -. 100.)
  in
  let buf = Buffer.create (4000 * 32) in
  let add = Numtext.add_float buf in
  let before = Gc.minor_words () in
  List.iter add values;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 4000 numbers" words)
    true (words < 400.);
  (* Read back, space-separated, into a float array: no allocation, and
     the same bits. *)
  let text =
    String.concat " "
      (List.map
         (fun v ->
           let b = Buffer.create 24 in
           Numtext.add_float b v;
           Buffer.contents b)
         values)
  in
  let n = String.length text and out = Array.make 4000 0. in
  let at = ref 0 and k = ref 0 and ok = ref true in
  let before = Gc.minor_words () in
  while !ok && !at < n do
    let e = Numtext.scan_float text !at n out !k in
    if e < 0 then ok := false
    else begin
      at := e + 1;
      incr k
    end
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "every number read in place" true (!ok && !k = 4000);
  Alcotest.(check bool) "same bits" true
    (List.for_all2
       (fun v w -> Int64.bits_of_float v = Int64.bits_of_float w)
       values (Array.to_list out));
  Alcotest.(check (float 0.)) "minor words reading 4000 numbers" 0. words

let suite =
  [
    Alcotest.test_case "floats = Printf %.17g (sweep)" `Quick test_sweep;
    Alcotest.test_case "carries and layout switch points" `Quick test_explicit_cases;
    Alcotest.test_case "ints = Printf %d" `Quick test_ints;
    Alcotest.test_case "cached powers within one ulp" `Quick test_cached_powers;
    Alcotest.test_case "no allocation outside the fallback" `Quick test_no_allocation;
  ]
