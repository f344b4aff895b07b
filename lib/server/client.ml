module P = Engine.Protocol
module J = Obs.Json

type failure =
  | Refused of Engine.Protocol.error
  | Transport of string

let failure_message = function
  | Refused e -> P.error_message e
  | Transport msg -> "transport: " ^ msg

type t = {
  addr : Address.t;
  mutable fd : Unix.file_descr;
  mutable alive : bool;
  frame : Frame.t;
  events : J.t Queue.t;
  mutable next_seq : int;
  mutable last_ev : int;
  mutable subscribed : bool;
  reconnect_attempts : int;
  reconnect_delay_s : float;
}

let address t = t.addr

let last_ev t = t.last_ev

let dial addr =
  match Address.sockaddr addr with
  | Error _ as e -> e
  | Ok sockaddr -> (
    let fd =
      Unix.socket ~cloexec:true
        (Unix.domain_of_sockaddr sockaddr)
        Unix.SOCK_STREAM 0
    in
    match Unix.connect fd sockaddr with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" (Address.to_string addr)
           (Unix.error_message e)))

let connect ?(retries = 0) addr =
  let rec go n =
    match dial addr with
    | Ok fd ->
      Ok
        {
          addr;
          fd;
          alive = true;
          frame = Frame.create ();
          events = Queue.create ();
          next_seq = 0;
          last_ev = 0;
          subscribed = false;
          reconnect_attempts = 20;
          reconnect_delay_s = 0.25;
        }
    | Error _ when n > 0 ->
      Unix.sleepf 0.25;
      go (n - 1)
    | Error _ as e -> e
  in
  go retries

let close t =
  if t.alive then begin
    t.alive <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Wire primitives                                                      *)

let send_line t line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off < len then
      match Unix.write_substring t.fd data off (len - off) with
      | 0 -> Error (Transport "connection closed while writing")
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
        Error (Transport (Unix.error_message e))
    else Ok ()
  in
  go 0

let scratch = Bytes.create 65536

(* [read_line ?deadline t] — the next framed line; [Ok None] only when a
   deadline was given and passed. *)
let read_line ?deadline t =
  let rec go () =
    match Frame.next t.frame with
    | Some (`Line line) -> Ok (Some line)
    | Some `Overflow -> Error (Transport "oversized line from server")
    | None -> (
      (match deadline with
      | None -> Ok true
      | Some d ->
        let left = d -. Unix.gettimeofday () in
        if left <= 0. then Ok false
        else (
          match Unix.select [ t.fd ] [] [] left with
          | [], _, _ -> Ok false
          | _ -> Ok true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok true))
      |> function
      | Error _ as e -> e
      | Ok false -> Ok None
      | Ok true -> (
        match Unix.read t.fd scratch 0 (Bytes.length scratch) with
        | 0 -> Error (Transport "connection closed by server")
        | n ->
          Frame.feed t.frame (Bytes.sub_string scratch 0 n);
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (e, _, _) ->
          Error (Transport (Unix.error_message e))))
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Response classification                                              *)

let field name = function
  | J.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let note_event t v =
  (match field "ev" v with
  | Some (J.Num n) ->
    let ev = int_of_float n in
    if ev > t.last_ev then t.last_ev <- ev
  | _ -> ());
  Queue.push v t.events

let error_of_response v =
  match field "error" v with
  | Some (J.Obj _ as e) ->
    let code =
      match field "code" e with
      | Some (J.Str c) -> Option.value ~default:P.Parse (P.code_of_string c)
      | _ -> P.Parse
    in
    let message =
      match field "message" e with Some (J.Str m) -> m | _ -> "unknown error"
    in
    let retry_after_ms =
      match field "retry_after_ms" e with
      | Some (J.Num n) -> Some (int_of_float n)
      | _ -> None
    in
    { P.code; message; retry_after_ms }
  | _ -> P.err P.Parse "malformed error response"

let strip_meta = function
  | J.Obj kvs ->
    List.filter (fun (k, _) -> k <> "ok" && k <> "seq") kvs
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Request/response with seq correlation                                *)

let raw_request t fields =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let obj = J.Obj (("seq", J.Num (float_of_int seq)) :: fields) in
  match send_line t (J.to_string obj) with
  | Error _ as e -> e
  | Ok () ->
    let rec await () =
      match read_line t with
      | Error _ as e -> e
      | Ok None -> Error (Transport "no response")  (* unreachable: no deadline *)
      | Ok (Some line) -> (
        match J.of_string line with
        | Error msg -> Error (Transport ("bad JSON from server: " ^ msg))
        | Ok v -> (
          match field "event" v with
          | Some _ ->
            note_event t v;
            await ()
          | None -> (
            let matches =
              match field "seq" v with
              | Some (J.Num n) -> int_of_float n = seq
              | Some _ -> false
              | None -> true  (* connection-level refusal: it answers us *)
            in
            if not matches then await ()
            else
              match field "ok" v with
              | Some (J.Bool true) -> Ok (strip_meta v)
              | _ -> Error (Refused (error_of_response v)))))
    in
    await ()

let request = raw_request

(* Reconnect-and-resume wrapper for operations idempotent by job id. *)
let reconnect t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  let rec go n =
    if n <= 0 then Error (Transport "reconnect failed")
    else
      match dial t.addr with
      | Ok fd ->
        t.fd <- fd;
        t.alive <- true;
        (* A fresh connection has fresh framer state server-side; our
           own half-read input is stale too. *)
        Frame.reset t.frame;
        if t.subscribed then
          match
            raw_request t
              [
                ("cmd", J.Str "subscribe");
                ("from_ev", J.Num (float_of_int t.last_ev));
              ]
          with
          | Ok _ -> Ok ()
          | Error _ ->
            Unix.sleepf t.reconnect_delay_s;
            go (n - 1)
        else Ok ()
      | Error _ ->
        Unix.sleepf t.reconnect_delay_s;
        go (n - 1)
  in
  go t.reconnect_attempts

let resilient t fields =
  match raw_request t fields with
  | Error (Transport _) -> (
    match reconnect t with
    | Error _ as e -> e
    | Ok () -> raw_request t fields)
  | r -> r

(* ------------------------------------------------------------------ *)
(* Typed operations                                                     *)

let int_field name fields =
  match List.assoc_opt name fields with
  | Some (J.Num n) -> Ok (int_of_float n)
  | _ -> Error (Transport (Printf.sprintf "response missing %S" name))

let str_field name fields =
  match List.assoc_opt name fields with
  | Some (J.Str s) -> Ok s
  | _ -> Error (Transport (Printf.sprintf "response missing %S" name))

let ( let* ) = Result.bind

let submit t spec =
  let* fields =
    raw_request t [ ("cmd", J.Str "submit"); ("job", Engine.Job.spec_to_json spec) ]
  in
  int_field "id" fields

let id_num id = J.Num (float_of_int id)

let status t id =
  let* fields = resilient t [ ("cmd", J.Str "status"); ("id", id_num id) ] in
  str_field "status" fields

let job_result t id =
  let* fields = resilient t [ ("cmd", J.Str "result"); ("id", id_num id) ] in
  match List.assoc_opt "result" fields with
  | Some v -> Ok v
  | None -> Error (Transport "response missing \"result\"")

let wait t id =
  let* fields = resilient t [ ("cmd", J.Str "wait"); ("id", id_num id) ] in
  let* status = str_field "status" fields in
  Ok (status, List.assoc_opt "result" fields)

let cancel t id =
  let* fields = raw_request t [ ("cmd", J.Str "cancel"); ("id", id_num id) ] in
  match List.assoc_opt "cancelled" fields with
  | Some (J.Bool b) -> Ok b
  | _ -> Error (Transport "response missing \"cancelled\"")

let jobs t =
  let* fields = resilient t [ ("cmd", J.Str "jobs") ] in
  match List.assoc_opt "jobs" fields with
  | Some (J.Arr items) ->
    let entry = function
      | J.Obj kvs -> (
        match (List.assoc_opt "id" kvs, List.assoc_opt "status" kvs) with
        | Some (J.Num id), Some (J.Str s) -> Some (int_of_float id, s)
        | _ -> None)
      | _ -> None
    in
    Ok (List.filter_map entry items)
  | _ -> Error (Transport "response missing \"jobs\"")

let metrics t = resilient t [ ("cmd", J.Str "metrics") ]

let shutdown t =
  let* _ = raw_request t [ ("cmd", J.Str "shutdown") ] in
  Ok ()

let subscribe ?from_ev t =
  let fields =
    ("cmd", J.Str "subscribe")
    ::
    (match from_ev with
    | Some ev -> [ ("from_ev", J.Num (float_of_int ev)) ]
    | None -> [])
  in
  let* _ = raw_request t fields in
  t.subscribed <- true;
  Ok ()

let next_event ?(timeout_s = 1.0) t =
  match Queue.take_opt t.events with
  | Some v -> Ok (Some v)
  | None -> (
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      match read_line ~deadline t with
      | Ok None -> Ok None
      | Ok (Some line) -> (
        match J.of_string line with
        | Error msg -> Error (Transport ("bad JSON from server: " ^ msg))
        | Ok v -> (
          match field "event" v with
          | Some _ ->
            note_event t v;
            Ok (Queue.take_opt t.events)
          | None -> go ()  (* stray response; drop *)))
      | Error (Transport _) -> (
        match reconnect t with
        | Error _ as e -> e
        | Ok () -> go ())
      | Error _ as e -> e
    in
    go ())
