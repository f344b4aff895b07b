(* Tests for the planned FFTs that the Poisson force field runs: the
   complex [cfft] and the real-input half-spectrum [rfft_into]. *)

let approx = Alcotest.float 1e-6

let test_pow2_helpers () =
  Alcotest.(check bool) "1" true (Numeric.Fft.is_pow2 1);
  Alcotest.(check bool) "8" true (Numeric.Fft.is_pow2 8);
  Alcotest.(check bool) "12" false (Numeric.Fft.is_pow2 12);
  Alcotest.(check bool) "0" false (Numeric.Fft.is_pow2 0);
  Alcotest.(check int) "next 5" 8 (Numeric.Fft.next_pow2 5);
  Alcotest.(check int) "next 8" 8 (Numeric.Fft.next_pow2 8);
  Alcotest.(check int) "next 0" 1 (Numeric.Fft.next_pow2 0)

let cfft ~inverse re im off =
  Numeric.Fft.cfft (Numeric.Fft.plan (Array.length re - off)) ~inverse re im off

let test_impulse_spectrum_flat () =
  let re = [| 1.; 0.; 0.; 0. |] and im = [| 0.; 0.; 0.; 0. |] in
  cfft ~inverse:false re im 0;
  Array.iter (fun v -> Alcotest.check approx "flat re" 1. v) re;
  Array.iter (fun v -> Alcotest.check approx "flat im" 0. v) im

let test_constant_spectrum_impulse () =
  let re = [| 1.; 1.; 1.; 1. |] and im = Array.make 4 0. in
  cfft ~inverse:false re im 0;
  Alcotest.check approx "dc" 4. re.(0);
  for i = 1 to 3 do
    Alcotest.check approx "ac" 0. re.(i)
  done

(* [off] leading slots hold a sentinel the transform must not touch. *)
let random_signal ~seed ~off n =
  let rng = Numeric.Rng.create seed in
  let fill () =
    Array.init (off + n) (fun i ->
        if i < off then 99. else Numeric.Rng.uniform rng (-1.) 1.)
  in
  let re = fill () in
  let im = fill () in
  (re, im)

let test_roundtrip () =
  List.iter
    (fun off ->
      let n = 16 in
      let re, im = random_signal ~seed:3 ~off n in
      let re0 = Array.copy re and im0 = Array.copy im in
      cfft ~inverse:false re im off;
      cfft ~inverse:true re im off;
      Alcotest.(check bool)
        (Printf.sprintf "re restored off=%d" off)
        true
        (Helpers.max_abs_diff re0 re < 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "im restored off=%d" off)
        true
        (Helpers.max_abs_diff im0 im < 1e-9))
    [ 0; 5 ]

let naive_dft re im =
  let n = Array.length re in
  let out_re = Array.make n 0. and out_im = Array.make n 0. in
  for k = 0 to n - 1 do
    for t = 0 to n - 1 do
      let ang = -2. *. Float.pi *. float_of_int (k * t) /. float_of_int n in
      out_re.(k) <- out_re.(k) +. (re.(t) *. cos ang) -. (im.(t) *. sin ang);
      out_im.(k) <- out_im.(k) +. (re.(t) *. sin ang) +. (im.(t) *. cos ang)
    done
  done;
  (out_re, out_im)

let test_matches_naive_dft () =
  List.iter
    (fun off ->
      let n = 8 in
      let re, im = random_signal ~seed:4 ~off n in
      let exp_re, exp_im =
        naive_dft (Array.sub re off n) (Array.sub im off n)
      in
      cfft ~inverse:false re im off;
      Alcotest.(check bool)
        (Printf.sprintf "re off=%d" off)
        true
        (Helpers.max_abs_diff exp_re (Array.sub re off n) < 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "im off=%d" off)
        true
        (Helpers.max_abs_diff exp_im (Array.sub im off n) < 1e-9);
      for i = 0 to off - 1 do
        Alcotest.(check (float 0.)) "prefix untouched" 99. re.(i)
      done)
    [ 0; 3 ]

let test_bad_length_rejected () =
  Alcotest.check_raises "length 3"
    (Invalid_argument "Fft.plan: length not a power of two") (fun () ->
      ignore (Numeric.Fft.plan 3));
  Alcotest.check_raises "real length 1"
    (Invalid_argument "Fft.rplan: length not a power of two >= 2") (fun () ->
      ignore (Numeric.Fft.rplan 1))

(* [rfft_into] reads [count] samples at [soff], zero-extends them to the
   plan length and writes X(0..n/2) at [ooff]: it must equal the first
   half of the complex DFT of the zero-extended real sequence, and leave
   the rest of the output arrays alone. *)
let test_rfft_matches_naive () =
  List.iter
    (fun (n, count) ->
      let soff = 2 and ooff = 3 in
      let rng = Numeric.Rng.create (50 + n + count) in
      let src =
        Array.init (soff + count + 2) (fun _ -> Numeric.Rng.uniform rng (-1.) 1.)
      in
      let padded =
        Array.init n (fun j -> if j < count then src.(soff + j) else 0.)
      in
      let exp_re, exp_im = naive_dft padded (Array.make n 0.) in
      let half = n / 2 in
      let outr = Array.make (ooff + half + 2) 99. in
      let outi = Array.make (ooff + half + 2) 99. in
      let zre = Array.make half 0. and zim = Array.make half 0. in
      Numeric.Fft.rfft_into (Numeric.Fft.rplan n) ~src ~soff ~count ~outr ~outi
        ~ooff ~zre ~zim;
      let tag s = Printf.sprintf "n=%d count=%d %s" n count s in
      Alcotest.(check bool) (tag "re") true
        (Helpers.max_abs_diff (Array.sub exp_re 0 (half + 1))
           (Array.sub outr ooff (half + 1))
        < 1e-9);
      Alcotest.(check bool) (tag "im") true
        (Helpers.max_abs_diff (Array.sub exp_im 0 (half + 1))
           (Array.sub outi ooff (half + 1))
        < 1e-9);
      List.iter
        (fun i ->
          Alcotest.(check (float 0.)) (tag "outside re") 99. outr.(i);
          Alcotest.(check (float 0.)) (tag "outside im") 99. outi.(i))
        [ 0; ooff - 1; ooff + half + 1 ])
    [ (2, 2); (8, 8); (16, 16); (16, 11); (32, 5); (8, 1) ]

let signal_gen =
  QCheck.(array_of_size (QCheck.Gen.return 16) (float_range (-10.) 10.))

let energy a = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. a

let prop_parseval =
  QCheck.Test.make ~name:"Parseval: energy preserved up to 1/n" signal_gen
    (fun re ->
      let im = Array.make (Array.length re) 0. in
      let time_energy = energy re in
      let re' = Array.copy re and im' = Array.copy im in
      cfft ~inverse:false re' im' 0;
      let freq_energy =
        (energy re' +. energy im') /. float_of_int (Array.length re)
      in
      Float.abs (time_energy -. freq_energy) < 1e-6 *. (1. +. time_energy))

let prop_linearity =
  QCheck.Test.make ~name:"FFT is linear" (QCheck.pair signal_gen signal_gen)
    (fun (a, b) ->
      let n = Array.length a in
      let fft x =
        let re = Array.copy x and im = Array.make n 0. in
        cfft ~inverse:false re im 0;
        (re, im)
      in
      let sum = Array.init n (fun i -> a.(i) +. b.(i)) in
      let sre, _ = fft sum in
      let are, _ = fft a in
      let bre, _ = fft b in
      let combined = Array.init n (fun i -> are.(i) +. bre.(i)) in
      Helpers.max_abs_diff sre combined < 1e-6)

let suite =
  [
    Alcotest.test_case "pow2 helpers" `Quick test_pow2_helpers;
    Alcotest.test_case "impulse spectrum" `Quick test_impulse_spectrum_flat;
    Alcotest.test_case "constant spectrum" `Quick test_constant_spectrum_impulse;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "matches naive DFT" `Quick test_matches_naive_dft;
    Alcotest.test_case "bad length" `Quick test_bad_length_rejected;
    Alcotest.test_case "rfft_into matches naive real DFT" `Quick
      test_rfft_matches_naive;
    QCheck_alcotest.to_alcotest prop_parseval;
    QCheck_alcotest.to_alcotest prop_linearity;
  ]
