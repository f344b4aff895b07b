external format_float : string -> float -> string = "caml_format_float"

let pow10 =
  [|
    1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
    1_000_000_000; 10_000_000_000; 100_000_000_000; 1_000_000_000_000;
    10_000_000_000_000; 100_000_000_000_000; 1_000_000_000_000_000;
    10_000_000_000_000_000; 100_000_000_000_000_000;
    1_000_000_000_000_000_000;
  |]

(* ------------------------------------------------------------------ *)
(* Digits                                                              *)

(* Every division below is by a constant, which the compiler turns into
   a multiplication, except the one per float that splits the digits at
   the decimal point.  Digits go out two at a time where they can: a
   buffer call costs more than the arithmetic. *)

let add_digit buf d = Buffer.add_char buf (Char.unsafe_chr (48 + d))

(* The two ASCII digits of [k < 100], the first in the low byte. *)
let pairs = Array.init 100 (fun k -> (48 + (k / 10)) lor ((48 + (k mod 10)) lsl 8))

let add_pair buf k = Buffer.add_uint16_le buf pairs.(k)

(* [x < 10^w], [w <= 4]: the [w] digits of [x], zero-padded. *)
let add_small buf x w =
  match w with
  | 4 ->
    add_pair buf (x / 100);
    add_pair buf (x mod 100)
  | 3 ->
    add_digit buf (x / 100);
    add_pair buf (x mod 100)
  | 2 -> add_pair buf x
  | 1 -> add_digit buf x
  | _ -> ()

(* [0 <= x < 10^w]: the [w] digits of [x], zero-padded, most significant
   first. *)
let rec add_digits buf x w =
  if w > 4 then begin
    add_digits buf (x / 10_000) (w - 4);
    add_small buf (x mod 10_000) 4
  end
  else add_small buf x w

(* The number of digits of [x >= 0]: the least [k >= 1] with [x < 10^k]. *)
let rec width_from k x = if k < 19 && x >= pow10.(k) then width_from (k + 1) x else k

let width x = width_from 1 x

let add_int buf i =
  if i >= 0 then add_digits buf i (width i)
  else if i = min_int then Buffer.add_string buf (Int.to_string i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i) (width (-i))
  end

(* [%.17g]'s layout of [0.d × 10^(x + 1)]: [d] has [n] digits and no
   trailing zero, so [x] is the exponent of its first digit.  Fixed form
   for [-4 <= x < 17], exponent form otherwise, with at least two
   exponent digits. *)
let add_layout buf neg d n x =
  if neg then Buffer.add_char buf '-';
  if x < -4 || x >= 17 then begin
    let p = pow10.(n - 1) in
    add_digit buf (d / p);
    if n > 1 then begin
      Buffer.add_char buf '.';
      add_digits buf (d mod p) (n - 1)
    end;
    Buffer.add_char buf 'e';
    Buffer.add_char buf (if x < 0 then '-' else '+');
    let a = abs x in
    add_digits buf a (if a >= 100 then 3 else 2)
  end
  else if x < 0 then begin
    Buffer.add_string buf "0.";
    for _ = 2 to -x do
      Buffer.add_char buf '0'
    done;
    add_digits buf d n
  end
  else if n <= x + 1 then begin
    add_digits buf d n;
    for _ = n to x do
      Buffer.add_char buf '0'
    done
  end
  else begin
    let p = pow10.(n - x - 1) in
    add_digits buf (d / p) (x + 1);
    Buffer.add_char buf '.';
    add_digits buf (d mod p) (n - x - 1)
  end

(* ------------------------------------------------------------------ *)
(* Grisu3, counted mode                                                *)

(* 10^k ≈ pow_f.(i) · 2^pow_e.(i) for k = -300 + 8i, the significands
   unsigned with the top bit set and rounded to nearest.  Generated with
   exact arithmetic by scripts/cached_powers.py. *)
let pow_f =
  [|
    0xab70fe17c79ac6caL; 0xff77b1fcbebcdc4fL; 0xbe5691ef416bd60cL;
    0x8dd01fad907ffc3cL; 0xd3515c2831559a83L; 0x9d71ac8fada6c9b5L;
    0xea9c227723ee8bcbL; 0xaecc49914078536dL; 0x823c12795db6ce57L;
    0xc21094364dfb5637L; 0x9096ea6f3848984fL; 0xd77485cb25823ac7L;
    0xa086cfcd97bf97f4L; 0xef340a98172aace5L; 0xb23867fb2a35b28eL;
    0x84c8d4dfd2c63f3bL; 0xc5dd44271ad3cdbaL; 0x936b9fcebb25c996L;
    0xdbac6c247d62a584L; 0xa3ab66580d5fdaf6L; 0xf3e2f893dec3f126L;
    0xb5b5ada8aaff80b8L; 0x87625f056c7c4a8bL; 0xc9bcff6034c13053L;
    0x964e858c91ba2655L; 0xdff9772470297ebdL; 0xa6dfbd9fb8e5b88fL;
    0xf8a95fcf88747d94L; 0xb94470938fa89bcfL; 0x8a08f0f8bf0f156bL;
    0xcdb02555653131b6L; 0x993fe2c6d07b7facL; 0xe45c10c42a2b3b06L;
    0xaa242499697392d3L; 0xfd87b5f28300ca0eL; 0xbce5086492111aebL;
    0x8cbccc096f5088ccL; 0xd1b71758e219652cL; 0x9c40000000000000L;
    0xe8d4a51000000000L; 0xad78ebc5ac620000L; 0x813f3978f8940984L;
    0xc097ce7bc90715b3L; 0x8f7e32ce7bea5c70L; 0xd5d238a4abe98068L;
    0x9f4f2726179a2245L; 0xed63a231d4c4fb27L; 0xb0de65388cc8ada8L;
    0x83c7088e1aab65dbL; 0xc45d1df942711d9aL; 0x924d692ca61be758L;
    0xda01ee641a708deaL; 0xa26da3999aef774aL; 0xf209787bb47d6b85L;
    0xb454e4a179dd1877L; 0x865b86925b9bc5c2L; 0xc83553c5c8965d3dL;
    0x952ab45cfa97a0b3L; 0xde469fbd99a05fe3L; 0xa59bc234db398c25L;
    0xf6c69a72a3989f5cL; 0xb7dcbf5354e9beceL; 0x88fcf317f22241e2L;
    0xcc20ce9bd35c78a5L; 0x98165af37b2153dfL; 0xe2a0b5dc971f303aL;
    0xa8d9d1535ce3b396L; 0xfb9b7cd9a4a7443cL; 0xbb764c4ca7a44410L;
    0x8bab8eefb6409c1aL; 0xd01fef10a657842cL; 0x9b10a4e5e9913129L;
    0xe7109bfba19c0c9dL; 0xac2820d9623bf429L; 0x80444b5e7aa7cf85L;
    0xbf21e44003acdd2dL; 0x8e679c2f5e44ff8fL;
  |]

let pow_e =
  [|
    -1060; -1034; -1007; -980; -954; -927; -901; -874; -847; -821;
    -794; -768; -741; -715; -688; -661; -635; -608; -582; -555;
    -529; -502; -475; -449; -422; -396; -369; -343; -316; -289;
    -263; -236; -210; -183; -157; -130; -103; -77; -50; -24;
    3; 30; 56; 83; 109; 136; 162; 189; 216; 242;
    269; 295; 322; 348; 375; 402; 428; 455; 481; 508;
    534; 561; 588; 614; 641; 667; 694; 720; 747; 774;
    800; 827; 853; 880; 907; 933; 960;
  |]

let cached_powers () =
  List.init (Array.length pow_f) (fun i -> (-300 + (8 * i), pow_f.(i), pow_e.(i)))

(* The high 64 bits of the unsigned product [a · b], rounded (a half
   rounds up), from four 32×32-bit products. *)
let[@inline] mul_high a b =
  let open Int64 in
  let m32 = 0xFFFF_FFFFL in
  let ah = shift_right_logical a 32 and al = logand a m32 in
  let bh = shift_right_logical b 32 and bl = logand b m32 in
  let hh = mul ah bh and lh = mul al bh and hl = mul ah bl and ll = mul al bl in
  let mid =
    add
      (add (add (shift_right_logical ll 32) (logand hl m32)) (logand lh m32))
      0x8000_0000L
  in
  add
    (add (add hh (shift_right_logical hl 32)) (shift_right_logical lh 32))
    (shift_right_logical mid 32)

(* Writes the 17 significant digits of [v] and returns [true], or writes
   nothing and returns [false] when the error bound leaves the last
   digit undecided.  [v] is finite with a biased binary exponent of at
   least 4: the three lowest binades of normal floats would need 10^316,
   past the table.

   The significand [w] (53 bits, shifted to fill 64) is scaled by the
   cached power 10^mk that brings its binary exponent to -s with
   32 <= s <= 58, so the scaled value f · 2^-s (off from w · 10^mk by
   less than one unit of f) has an integral part below 2^32 and a
   fractional part below 2^58 that stays a native int when multiplied
   by 10.  The integral part gives the first digits, the fraction the
   rest, and the unit of error grows tenfold with each fraction digit
   (generation stops, undecided, once the error reaches the fraction
   left); then the last digit is rounded only when the whole error
   interval rest ± unit lies on one side of the half. *)
let add_grisu buf v =
  let bits = Int64.bits_of_float v in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let w =
    Int64.shift_left
      (Int64.logor (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) 0x10_0000_0000_0000L)
      11
  in
  let we = biased - 1086 in
  (* k = ceil ((-59 - we) · log10 2) (78913 / 2^18 is log10 2 to
     enough places for every exponent here), the least power of ten
     that lifts w · 10^k to a binary exponent of -58; the first cached
     power at or above it leaves -58 <= -s <= -32. *)
  let k = -(((59 + we) * 78913) asr 18) in
  let i = (k + 307) asr 3 in
  let mk = -300 + (8 * i) in
  let s = -(we + pow_e.(i) + 64) in
  let f = mul_high w pow_f.(i) in
  let one = 1 lsl s in
  let integrals = Int64.to_int (Int64.shift_right_logical f s) in
  let digits = ref integrals in
  let rest = ref (Int64.to_int f land (one - 1)) in
  let unit = ref 1 in
  let kappa = ref 0 in
  while !digits < 10_000_000_000_000_000 && !rest > !unit do
    rest := !rest * 10;
    unit := !unit * 10;
    digits := (!digits * 10) + (!rest lsr s);
    rest := !rest land (one - 1);
    decr kappa
  done;
  let rest = !rest and unit = !unit in
  (* -1: undecided, 0: round down, 1: round up.  These two tests imply
     the other refusals of Grisu's RoundWeedCounted. *)
  let up =
    if !digits < 10_000_000_000_000_000 then -1
    else if 2 * (rest + unit) <= one then 0
    else if 2 * (rest - unit) >= one then 1
    else -1
  in
  up >= 0
  && begin
    let d = ref (!digits + up) and x = ref (16 + !kappa - mk) and n = ref 17 in
    if !d = pow10.(17) then begin
      d := pow10.(16);
      incr x
    end;
    while !d mod 10 = 0 do
      d := !d / 10;
      decr n
    done;
    add_layout buf (Int64.compare bits 0L < 0) !d !n !x;
    true
  end

(* ------------------------------------------------------------------ *)
(* Floats                                                              *)

let add_float buf v =
  let a = Float.abs v in
  (* An integral value below 1e17 has at most 17 digits: [%.17g] writes
     it as [%d] would, [-0] for [-0.]. *)
  if a < 1e17 && Float.of_int (Float.to_int v) = v then begin
    let n = Float.to_int v in
    if n < 0 || (n = 0 && 1. /. v < 0.) then Buffer.add_char buf '-';
    add_digits buf (abs n) (width (abs n))
  end
  else if not (a >= 0x1p-1019 && a <= Float.max_float && add_grisu buf v) then
    Buffer.add_string buf (format_float "%.17g" v)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

(* The exact powers of ten a double holds, for Clinger's fast path. *)
let exact_pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
    1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

(* The high 64 bits of the unsigned product [a · b], exact. *)
let[@inline] umul_high a b =
  let open Int64 in
  let m32 = 0xFFFF_FFFFL in
  let ah = shift_right_logical a 32 and al = logand a m32 in
  let bh = shift_right_logical b 32 and bl = logand b m32 in
  let hh = mul ah bh and lh = mul al bh and hl = mul ah bl and ll = mul al bl in
  let mid =
    add (add (shift_right_logical ll 32) (logand hl m32)) (logand lh m32)
  in
  add
    (add (add hh (shift_right_logical hl 32)) (shift_right_logical lh 32))
    (shift_right_logical mid 32)

(* The leading zero bits of a non-zero [x], by halving steps. *)
let[@inline] clz64 x =
  let n = ref 0 and x = ref x in
  if Int64.shift_right_logical !x 32 = 0L then begin
    n := 32;
    x := Int64.shift_left !x 32
  end;
  if Int64.shift_right_logical !x 48 = 0L then begin
    n := !n + 16;
    x := Int64.shift_left !x 16
  end;
  if Int64.shift_right_logical !x 56 = 0L then begin
    n := !n + 8;
    x := Int64.shift_left !x 8
  end;
  if Int64.shift_right_logical !x 60 = 0L then begin
    n := !n + 4;
    x := Int64.shift_left !x 4
  end;
  if Int64.shift_right_logical !x 62 = 0L then begin
    n := !n + 2;
    x := Int64.shift_left !x 2
  end;
  if Int64.shift_right_logical !x 63 = 0L then n := !n + 1;
  !n

(* [a < b] as unsigned 64-bit integers. *)
let[@inline] ult a b = Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
   2021, as fast_float implements it): the double nearest to w · 10^q
   for a non-zero unsigned 64-bit [w] and [q] within the table, or NaN
   when the truncated 128-bit product cannot decide the rounding.  The
   product of w (normalised to its top bit) with the table's 5^q keeps
   55 significant bits after a shift of 9 or 10; a second product with
   the low half is taken when the first leaves the 9 bits below them
   all ones.  A low word of all ones is still undecided outside
   q ∈ [-27, 55], where 5^q is not exact in 128 bits; that case, never
   reached by 19-digit inputs in the published analysis, is declined
   instead of trusted.  Halfway cases round to even, and only arise for
   q ∈ [-4, 23], where the product is exact. *)
let[@inline] eisel_lemire w q =
  let lz = clz64 w in
  let w = Int64.shift_left w lz in
  let i = 2 * (q - Pow5.smallest) in
  let hi = ref (umul_high w Pow5.table.(i)) in
  let lo = ref (Int64.mul w Pow5.table.(i)) in
  if Int64.logand !hi 0x1FFL = 0x1FFL then begin
    let carry = umul_high w Pow5.table.(i + 1) in
    let lo' = Int64.add !lo carry in
    if ult lo' carry then hi := Int64.add !hi 1L;
    lo := lo'
  end;
  let hi = !hi and lo = !lo in
  if lo = -1L && (q < -27 || q > 55) then Float.nan
  else begin
    let upper = Int64.to_int (Int64.shift_right_logical hi 63) in
    let shift = upper + 9 in
    (* Below 2^55: a native int from here on. *)
    let m = Int64.to_int (Int64.shift_right_logical hi shift) in
    let e = ((217706 * q) asr 16) + 63 + upper - lz + 1023 in
    if e <= 0 then begin
      (* Subnormal, or rounding up to the least normal. *)
      let s = 1 - e in
      let m = if s >= 62 then 0 else m lsr s in
      let m = (m + (m land 1)) lsr 1 in
      let e = if m < 1 lsl 52 then 0 else 1 in
      Int64.float_of_bits (Int64.of_int (m lor (e lsl 52)))
    end
    else begin
      let m =
        if
          not (ult 1L lo)
          && q >= -4 && q <= 23 && m land 3 = 1
          && Int64.shift_left (Int64.of_int m) shift = hi
        then m land lnot 1
        else m
      in
      let m = (m + (m land 1)) lsr 1 in
      let m, e = if m >= 1 lsl 53 then (1 lsl 52, e + 1) else (m, e) in
      if e >= 0x7FF then Float.infinity
      else
        Int64.float_of_bits
          (Int64.logor
             (Int64.of_int (m land lnot (1 lsl 52)))
             (Int64.shift_left (Int64.of_int e) 52))
    end
  end

let[@inline] is_digit s k =
  let c = String.unsafe_get s k in
  c >= '0' && c <= '9'

let[@inline] digit s k = Char.code (String.unsafe_get s k) - 48

(* Whether the eight bytes from [k] are all digits, and their value
   (SWAR: pairs, then quads, then the eight, as fast_float reads them). *)
let[@inline] eight_digits v =
  let open Int64 in
  logor
    (logand v 0xF0F0_F0F0_F0F0_F0F0L)
    (shift_right_logical (logand (add v 0x0606_0606_0606_0606L) 0xF0F0_F0F0_F0F0_F0F0L) 4)
  = 0x3333_3333_3333_3333L

let[@inline] eight_value v =
  let open Int64 in
  let v = sub v 0x3030_3030_3030_3030L in
  let v = add (mul v 10L) (shift_right_logical v 8) in
  let mask = 0x0000_00FF_0000_00FFL in
  to_int
    (shift_right_logical
       (add
          (mul (logand v mask) 0x000F_4240_0000_0064L)
          (mul (logand (shift_right_logical v 16) mask) 0x0000_2710_0000_0001L))
       32)

(* The decimal number at [s.[i]], read up to [j] or to the first byte
   that cannot continue it: an optional sign, digits with an optional
   point among them (at least one digit, at most 19 significant ones),
   an optional [e] or [E] exponent with a sign and one to five digits.
   Its value, exactly rounded, goes to [a.(slot)] and the result is the
   index after it; -1 (nothing stored) for any other text. *)
let scan_float s i j a slot =
  let k = ref i in
  let neg = !k < j && String.unsafe_get s !k = '-' in
  if !k < j && (neg || String.unsafe_get s !k = '+') then incr k;
  (* The first 18 significant digits in [w] ([nd] of them), the 19th in
     [d19]; a 20th declines.  [point] is the index after the point. *)
  let w = ref 0 and nd = ref 0 and d19 = ref 0 and point = ref (-1) in
  let start = !k and ok = ref true in
  while
    !k < j
    && (is_digit s !k || (String.unsafe_get s !k = '.' && !point < 0))
  do
    if String.unsafe_get s !k = '.' then point := !k + 1
    else if
      !point >= 0 && !nd > 0 && !nd <= 10 && !k + 8 <= j
      && eight_digits (String.get_int64_le s !k)
    then begin
      w := (!w * 100_000_000) + eight_value (String.get_int64_le s !k);
      nd := !nd + 8;
      k := !k + 7
    end
    else begin
      let d = digit s !k in
      if !nd < 18 then begin
        if !nd > 0 || d > 0 then begin
          w := (!w * 10) + d;
          incr nd
        end
      end
      else if !nd = 18 then begin
        d19 := d;
        incr nd
      end
      else ok := false
    end;
    incr k
  done;
  let digits = if !point < 0 then !k - start else !k - start - 1 in
  let exp = ref (if !point < 0 then 0 else !point - !k) in
  if !k < j && (String.unsafe_get s !k = 'e' || String.unsafe_get s !k = 'E')
  then begin
    incr k;
    let eneg = !k < j && String.unsafe_get s !k = '-' in
    if !k < j && (eneg || String.unsafe_get s !k = '+') then incr k;
    let e = ref 0 and f = !k in
    while !k < j && is_digit s !k do
      e := (!e * 10) + digit s !k;
      incr k
    done;
    if !k = f || !k - f > 5 then ok := false;
    exp := if eneg then !exp - !e else !exp + !e
  end;
  if not (!ok && digits > 0) then -1
  else begin
    let q = !exp in
    let v =
      if !nd = 0 then 0.
      else if !nd <= 18 && !w <= 1 lsl 53 && q >= -22 && q <= 22 then
        (* Clinger's fast path: both factors exact, one rounding. *)
        if q >= 0 then Float.of_int !w *. Array.unsafe_get exact_pow10 q
        else Float.of_int !w /. Array.unsafe_get exact_pow10 (-q)
      else if q < Pow5.smallest then 0.
      else if q > Pow5.largest then Float.infinity
      else
        eisel_lemire
          (if !nd = 19 then
             Int64.add (Int64.mul (Int64.of_int !w) 10L) (Int64.of_int !d19)
           else Int64.of_int !w)
          q
    in
    Array.unsafe_set a slot (if neg then -.v else v);
    !k
  end

let scan_float s i j a slot =
  if i < 0 || j > String.length s || slot < 0 || slot >= Array.length a then
    invalid_arg "Numtext.scan_float";
  scan_float s i j a slot

let float_of_sub s i j =
  if i < 0 || j > String.length s then invalid_arg "Numtext.float_of_sub";
  let a = [| 0. |] in
  if scan_float s i j a 0 = j then Array.unsafe_get a 0
  else float_of_string (String.sub s i (j - i))

let int_of_sub s i j =
  if i < 0 || j > String.length s then invalid_arg "Numtext.int_of_sub";
  let neg = i < j && String.unsafe_get s i = '-' in
  let k = if neg then i + 1 else i in
  if k < j && j - k <= 18 then begin
    let v = ref 0 and k = ref k in
    while !k < j && digit s !k >= 0 && digit s !k <= 9 do
      v := (!v * 10) + digit s !k;
      incr k
    done;
    if !k = j then if neg then - !v else !v
    else int_of_string (String.sub s i (j - i))
  end
  else int_of_string (String.sub s i (j - i))
