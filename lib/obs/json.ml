type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let max_exact_int = 9007199254740992. (* 2^53 *)

let to_int = function
  | Num n when Float.is_integer n && Float.abs n <= max_exact_int ->
    Some (int_of_float n)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
    (* [%.17g] (see [Numtext]) reads back to the same bits and prints
       every integral value below 1e17 without a point or an exponent, so
       step counts read naturally.  NaN/∞ have no JSON encoding; degrade
       to null rather than emit an unparsable document. *)
    if Float.is_finite v then Numtext.add_float buf v
    else Buffer.add_string buf "null"
  | Str s -> escape_to buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over the string                    *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf u =
    (* Encode one scalar value; surrogates are rejected by the caller. *)
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then error "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then error "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then error "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let u =
            match int_of_string_opt ("0x" ^ hex) with
            | Some u -> u
            | None -> error "invalid \\u escape"
          in
          if u >= 0xD800 && u <= 0xDFFF then error "surrogate \\u escape"
          else utf8_of_code buf u
        | _ -> error "unknown escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    (* Only a magnitude past [max_float] reads as non-finite: the text
       cannot spell NaN or an infinity. *)
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v when Float.is_finite v -> Num v
    | Some _ -> error "number out of range"
    | None -> error "invalid number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> error "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value ())
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> error "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  | exception Parse_error msg -> Error msg
