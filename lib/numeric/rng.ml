(* The 64-bit state lives in a mutable byte word, not a [mutable int64]
   field: writing an [int64] field boxes the new value on every draw,
   while [Bytes.set_int64_ne] stores it raw. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.mul (Int64.of_int (seed + 1)) golden)

let copy = Bytes.copy

(* Inlined into each draw below, so its result is never boxed. *)
let[@inline always] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* Keep 62 bits so the value stays non-negative in OCaml's 63-bit int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (bits /. 9007199254740992.)

let uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (next t) 1L = 1L

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p out of (0,1]";
  let rec go k = if float t 1. < p then k else go (k + 1) in
  go 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
