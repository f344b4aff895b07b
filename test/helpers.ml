(* Small array helpers shared by the test suites. *)

(* [max_abs_diff a b] is the infinity norm of [a - b]. *)
let max_abs_diff a b =
  assert (Array.length a = Array.length b);
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    let m = Float.abs (a.(i) -. b.(i)) in
    if m > !acc then acc := m
  done;
  !acc
