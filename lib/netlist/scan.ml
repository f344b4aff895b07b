(* [String.trim]'s whitespace. *)
let[@inline] blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* Eight bytes at a time while they fit, skipping words with no [c]:
   [(x - 0x01..) land lnot x land 0x80..] is non-zero exactly when some
   byte of [x] is zero.  Single bytes finish the scan. *)
let find s k b c =
  if k < 0 || b > String.length s then invalid_arg "Scan.find";
  let pattern = Int64.mul 0x0101_0101_0101_0101L (Int64.of_int (Char.code c)) in
  let k = ref k in
  while
    !k + 8 <= b
    &&
    let x = Int64.logxor (String.get_int64_le s !k) pattern in
    Int64.logand
      (Int64.logand (Int64.sub x 0x0101_0101_0101_0101L) (Int64.lognot x))
      0x8080_8080_8080_8080L
    = 0L
  do
    k := !k + 8
  done;
  while !k < b && String.unsafe_get s !k <> c do
    incr k
  done;
  !k

(* The window holds whole lines from [pos] up to [len]; a line cut by
   the end of the data read so far moves to the front before the next
   read, and the window doubles when one line fills it. *)
let chunk = 65536

let iter_lines ic f =
  let buf = ref (Bytes.create chunk) in
  let pos = ref 0 and len = ref 0 and line = ref 0 and eof = ref false in
  while not (!eof && !pos >= !len) do
    let s = Bytes.unsafe_to_string !buf in
    let eol = find s !pos !len '\n' in
    if eol < !len || !eof then begin
      let a = ref !pos and b = ref eol in
      while !a < !b && blank (String.unsafe_get s !a) do
        incr a
      done;
      while !b > !a && blank (String.unsafe_get s (!b - 1)) do
        decr b
      done;
      incr line;
      f s !line !a !b;
      pos := eol + 1
    end
    else begin
      let rest = !len - !pos in
      if rest = Bytes.length !buf then begin
        let wider = Bytes.create (2 * rest) in
        Bytes.blit !buf 0 wider 0 rest;
        buf := wider
      end
      else Bytes.blit !buf !pos !buf 0 rest;
      pos := 0;
      len := rest;
      let n = input ic !buf rest (Bytes.length !buf - rest) in
      if n = 0 then eof := true else len := rest + n
    end
  done

let rec same s a word k n =
  k >= n
  || String.unsafe_get s (a + k) = String.unsafe_get word k
     && same s a word (k + 1) n

let equals s a b word =
  if a < 0 || b > String.length s then invalid_arg "Scan.equals";
  b - a = String.length word && same s a word 0 (b - a)
