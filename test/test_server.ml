(* Network serving tests: line framing, addresses, protocol golden
   transcripts, a fuzzed stdio loop, and forked socket servers driven by
   the client library — concurrency equivalence, admission control and
   graceful SIGTERM drain.

   The forked servers exercise exactly the path `place serve --listen`
   runs; children leave via Unix._exit so the test harness's own at_exit
   machinery never runs twice. *)

module P = Engine.Protocol
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)

let drain_frames f =
  let rec go acc =
    match Server.Frame.next f with
    | None -> List.rev acc
    | Some x -> go (x :: acc)
  in
  go []

let test_frame_chunks () =
  let f = Server.Frame.create () in
  Server.Frame.feed f "hel";
  Alcotest.(check int) "no line yet" 0 (List.length (drain_frames f));
  Server.Frame.feed f "lo\nwor";
  Alcotest.(check bool) "first line" true
    (drain_frames f = [ `Line "hello" ]);
  Server.Frame.feed f "ld\r\ntail";
  Alcotest.(check bool) "crlf stripped" true
    (drain_frames f = [ `Line "world" ]);
  Alcotest.(check int) "partial bytes buffered" 4 (Server.Frame.pending f);
  Server.Frame.feed f "\n\n";
  Alcotest.(check bool) "tail and empty line" true
    (drain_frames f = [ `Line "tail"; `Line "" ])

let test_frame_many_lines_one_feed () =
  let f = Server.Frame.create () in
  Server.Frame.feed f "a\nb\nc\n";
  Alcotest.(check bool) "three lines" true
    (drain_frames f = [ `Line "a"; `Line "b"; `Line "c" ])

let test_frame_overflow () =
  let f = Server.Frame.create ~max_line:8 () in
  Server.Frame.feed f (String.make 20 'x');
  Alcotest.(check bool) "overflow reported once" true
    (drain_frames f = [ `Overflow ]);
  Server.Frame.feed f (String.make 20 'y');
  Alcotest.(check int) "still dropping" 0 (List.length (drain_frames f));
  Server.Frame.feed f "\nok\n";
  Alcotest.(check bool) "resyncs at newline" true
    (drain_frames f = [ `Line "ok" ])

let test_frame_reset () =
  let f = Server.Frame.create () in
  Server.Frame.feed f "stale\nhalf";
  Server.Frame.reset f;
  Alcotest.(check int) "no frames after reset" 0
    (List.length (drain_frames f));
  Alcotest.(check int) "no partial after reset" 0 (Server.Frame.pending f);
  Server.Frame.feed f "fresh\n";
  Alcotest.(check bool) "frames again" true (drain_frames f = [ `Line "fresh" ])

(* ------------------------------------------------------------------ *)
(* Address                                                             *)

let test_address_parse () =
  let ok s expect =
    match Server.Address.of_string s with
    | Ok t -> Alcotest.(check bool) ("parse " ^ s) true (t = expect)
    | Error msg -> Alcotest.failf "parse %s: %s" s msg
  in
  ok "unix:/run/place.sock" (Server.Address.Unix_path "/run/place.sock");
  ok "/run/place.sock" (Server.Address.Unix_path "/run/place.sock");
  ok "tcp:example.org:9000" (Server.Address.Tcp ("example.org", 9000));
  ok "example.org:9000" (Server.Address.Tcp ("example.org", 9000));
  ok ":9000" (Server.Address.Tcp ("127.0.0.1", 9000));
  ok "9000" (Server.Address.Tcp ("127.0.0.1", 9000));
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true
        (Result.is_error (Server.Address.of_string s)))
    [ ""; "unix:"; "tcp:host:notaport"; "host:70000" ]

let test_address_roundtrip () =
  List.iter
    (fun s ->
      match Server.Address.of_string s with
      | Error msg -> Alcotest.failf "parse %s: %s" s msg
      | Ok t ->
        Alcotest.(check bool) ("roundtrip " ^ s) true
          (Server.Address.of_string (Server.Address.to_string t) = Ok t))
    [ "unix:/x/y.sock"; "tcp:127.0.0.1:8080"; ":1234" ]

(* ------------------------------------------------------------------ *)
(* Protocol golden transcripts (stdio loop)                            *)

let run_stdio_session lines =
  let infile = Filename.temp_file "server_test" ".in" in
  let outfile = Filename.temp_file "server_test" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove infile;
      Sys.remove outfile)
    (fun () ->
      Out_channel.with_open_text infile (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      let sched = Engine.Scheduler.create () in
      In_channel.with_open_text infile (fun ic ->
          Out_channel.with_open_text outfile (fun oc ->
              P.serve sched ic oc));
      In_channel.with_open_text outfile In_channel.input_lines)

let golden_requests =
  [
    {|{"cmd":"jobs","seq":7}|};
    {|{"cmd":"step"}|};
    {|{"cmd":5,"seq":1}|};
    {|{"cmd":"frobnicate","seq":2}|};
    {|{"cmd":"result","id":3,"seq":3}|};
    {|{"cmd":"submit","seq":4,"job":{"profile":"nope","scale":0.5,"seed":1}}|};
    {|{"cmd":"result","id":1e19,"seq":8}|};
    {|{"cmd":"submit","seq":9,"job":{"profile":"fract","max_steps":1e19}}|};
    {|{"cmd":"submit","seq":10,"job":{"profile":"fract","priority":4.7e18}}|};
    {|{"cmd":"shutdown","seq":5}|};
  ]

let test_golden_v2 () =
  let expected =
    [
      {|{"ok":true,"seq":7,"jobs":[]}|};
      {|{"ok":true,"stepped":0}|};
      {|{"ok":false,"seq":1,"error":{"code":"parse","message":"field \"cmd\" is not a string"}}|};
      {|{"ok":false,"seq":2,"error":{"code":"unknown_cmd","message":"unknown command \"frobnicate\""}}|};
      {|{"ok":false,"seq":3,"error":{"code":"unknown_id","message":"unknown job id 3"}}|};
      {|{"ok":false,"seq":4,"error":{"code":"bad_spec","message":"source: unknown profile \"nope\""}}|};
      {|{"ok":false,"seq":8,"error":{"code":"bad_spec","message":"field \"id\" is not a positive integer"}}|};
      {|{"ok":false,"seq":9,"error":{"code":"bad_spec","message":"job: field \"max_steps\" is not an integer"}}|};
      {|{"ok":false,"seq":10,"error":{"code":"bad_spec","message":"job: field \"priority\" is not an integer"}}|};
      {|{"ok":true,"seq":5,"shutdown":true}|};
    ]
  in
  Alcotest.(check (list string))
    "v2 transcript" expected
    (run_stdio_session golden_requests)

(* Goal, mode, effort and flow are set only through the "objective"
   object.  A job carrying any of them at top level is refused with
   bad_spec naming "objective" (never silently run under the defaults),
   and an accepted submit echoes no objective. *)
let objective_submit_requests =
  [
    {|{"cmd":"submit","seq":1,"job":{"profile":"fract","scale":0.3,"seed":7,"mode":"fast","max_steps":2}}|};
    {|{"cmd":"submit","seq":2,"job":{"profile":"fract","scale":0.3,"seed":7,"objective":{"mode":"fast"},"timing":false}}|};
    {|{"cmd":"submit","seq":3,"job":{"profile":"fract","scale":0.3,"seed":7,"effort":3,"flow":"flat"}}|};
    {|{"cmd":"submit","seq":4,"job":{"profile":"fract","scale":0.3,"seed":7,"max_steps":2,"objective":{"goal":"routability","congest_every":3}}}|};
    {|{"cmd":"submit","seq":5,"job":{"profile":"fract","scale":0.3,"seed":7,"objective":{"goal":"banana"}}}|};
    {|{"cmd":"shutdown","seq":6}|};
  ]

let test_legacy_fields_refused () =
  let refused seq field =
    Printf.sprintf
      {|{"ok":false,"seq":%d,"error":{"code":"bad_spec","message":"job: top-level field \"%s\" is not accepted; set it inside \"objective\""}}|}
      seq field
  in
  let expected =
    [
      refused 1 "mode";
      refused 2 "timing";
      refused 3 "flow";
      {|{"ok":true,"seq":4,"id":1,"status":"queued"}|};
      {|{"ok":false,"seq":5,"error":{"code":"bad_spec","message":"objective: unknown goal \"banana\""}}|};
      {|{"ok":true,"seq":6,"shutdown":true}|};
    ]
  in
  Alcotest.(check (list string))
    "objective submit transcript" expected
    (run_stdio_session objective_submit_requests)

(* A trace whose directory does not exist is refused at submit; one
   that exists but cannot be opened (here a directory) fails the job at
   start with a typed reason. *)
let test_unopenable_trace () =
  Alcotest.(check (list string))
    "submit transcript"
    [
      {|{"ok":false,"seq":1,"error":{"code":"bad_spec","message":"spec: no such directory for trace /nonexistent/x.jsonl"}}|};
      {|{"ok":true,"seq":2,"shutdown":true}|};
    ]
    (run_stdio_session
       [
         {|{"cmd":"submit","seq":1,"job":{"profile":"fract","scale":0.3,"trace":"/nonexistent/x.jsonl"}}|};
         {|{"cmd":"shutdown","seq":2}|};
       ]);
  let dir = Filename.get_temp_dir_name () in
  let spec =
    Engine.Job.spec
      ~source:(Engine.Source.Profile { name = "fract"; scale = 0.3; seed = 1 })
      ~trace:dir ()
  in
  Alcotest.(check bool) "directory passes admission" true
    (Engine.Scheduler.validate_spec spec = Ok ());
  let sched = Engine.Scheduler.create () in
  let id = Engine.Scheduler.submit sched spec in
  Engine.Scheduler.drain sched;
  Engine.Scheduler.stop sched;
  match Engine.Scheduler.result sched id with
  | Some { Engine.Job.status = Engine.Job.Failed msg; _ } ->
    let prefix = Printf.sprintf "trace: cannot open %s: " dir in
    Alcotest.(check string) "typed reason" prefix
      (String.sub msg 0 (min (String.length msg) (String.length prefix)));
    Alcotest.(check bool) "no constructor text" false
      (String.length msg >= 9 && String.sub msg 0 9 = "Sys_error")
  | _ -> Alcotest.fail "the job did not fail"

(* Every failure code render must round-trip through code_of_string. *)
let test_codes_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        ("code " ^ P.code_to_string c)
        true
        (P.code_of_string (P.code_to_string c) = Some c))
    [
      P.Parse;
      P.Unknown_cmd;
      P.Bad_spec;
      P.Unknown_id;
      P.Not_terminal;
      P.Overloaded;
      P.Shutting_down;
    ]

(* ------------------------------------------------------------------ *)
(* Fuzz: arbitrary bytes never kill the loop or go unanswered          *)

let fuzz_serve_responds =
  QCheck.Test.make ~count:200
    ~name:"serve answers every line of arbitrary bytes"
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun raw ->
      (* One request line: strip the line separators fuzzing would turn
         into accidental extra requests. *)
      let line =
        String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) raw
      in
      let responses = run_stdio_session [ line ] in
      if String.trim line = "" then responses = []
      else
        match responses with
        | [ resp ] -> (
          match J.of_string resp with
          | Ok v -> (
            (* Always a JSON object with an "ok" bool — and unless the
               fuzzer stumbled on a valid command, a typed error. *)
            match J.member "ok" v with
            | Some (J.Bool _) -> true
            | _ -> false)
          | Error _ -> false)
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* Spawned socket servers                                              *)

let temp_sock () =
  let f = Filename.temp_file "server_test" ".sock" in
  Sys.remove f;
  f

(* The server children are real [place serve --listen] processes:
   [Unix.fork] is off-limits once any suite has spun up worker domains
   (the runtime's restriction is sticky), and exec'ing the binary tests
   exactly what production runs.  [create_process] uses posix_spawn, so
   live domains are fine. *)
(* A file of the repository by its path from the root, found whether the
   suite runs under [dune test] (from _build/default/test) or from the
   repository root. *)
let repo_file path =
  let candidates = [ "../" ^ path; "_build/default/" ^ path; path ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found (not built?)" path

let place_exe () = repo_file "bin/place.exe"

let spawn_server args =
  let exe = place_exe () in
  let argv = Array.of_list (exe :: "serve" :: args)
  and null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () -> Unix.create_process exe argv null null null)

let connect_exn addr =
  match Server.Client.connect ~retries:40 addr with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let client_exn what = function
  | Ok v -> v
  | Error f -> Alcotest.failf "%s: %s" what (Server.Client.failure_message f)

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1

(* Run [exe ARGS] (default place.exe) to completion: its exit code,
   stdout and stderr. *)
let run_place ?exe args =
  let exe = match exe with Some e -> e | None -> place_exe () in
  let out_file = Filename.temp_file "place_cli" ".out"
  and err_file = Filename.temp_file "place_cli" ".err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ null; out; err ])
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) null out err)
  in
  let code = reap pid in
  let slurp file =
    let s = In_channel.with_open_bin file In_channel.input_all in
    Sys.remove file;
    s
  in
  let stdout = slurp out_file in
  (code, stdout, slurp err_file)

let fast_spec i =
  Engine.Job.spec
    ~source:(Engine.Source.Profile { name = "fract"; scale = 0.5; seed = 100 + i })
    ~objective:(Engine.Objective.make ~mode:Engine.Objective.Fast ())
    ~max_steps:6 ()

let solo_result spec = fst (Engine.Scheduler.run_job spec)

(* Eight clients multiplexed onto one scheduler: every job's result must
   be bitwise what a solo run of the same spec produces — the
   scheduler's interleaving invariance carried through the socket.  A
   [place submit --wait] CLI client then gets a legal done result, and
   the server's --transcript numbers its events strictly increasing. *)
let test_eight_clients_bitwise_equal () =
  let sock = temp_sock () in
  let address = Server.Address.Unix_path sock in
  let transcript = Filename.temp_file "server_test" ".transcript.jsonl" in
  let pid =
    spawn_server
      [
        "--listen"; "unix:" ^ sock;
        "--concurrency"; "3";
        "--transcript"; transcript;
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock;
      if Sys.file_exists transcript then Sys.remove transcript)
    (fun () ->
      let n = 8 in
      let clients = List.init n (fun _ -> connect_exn address) in
      (* All submits first, then all waits: the jobs genuinely overlap. *)
      let ids =
        List.mapi
          (fun i c -> (i, c, client_exn "submit" (Server.Client.submit c (fast_spec i))))
          clients
      in
      List.iter
        (fun (i, c, id) ->
          let status, result = client_exn "wait" (Server.Client.wait c id) in
          Alcotest.(check string) (Printf.sprintf "job %d done" id) "done" status;
          let served =
            match result with
            | Some r -> (
              match Engine.Job.result_of_json r with
              | Ok jr -> jr
              | Error e -> Alcotest.failf "result does not validate: %s" e)
            | None -> Alcotest.failf "wait response for %d lacks a result" id
          in
          let solo = solo_result (fast_spec i) in
          Alcotest.(check bool)
            (Printf.sprintf "job %d hpwl bitwise" id)
            true
            (Int64.bits_of_float served.Engine.Job.hpwl
            = Int64.bits_of_float solo.Engine.Job.hpwl);
          Alcotest.(check bool)
            (Printf.sprintf "job %d overlap bitwise" id)
            true
            (Int64.bits_of_float served.Engine.Job.overlap
            = Int64.bits_of_float solo.Engine.Job.overlap);
          Alcotest.(check int)
            (Printf.sprintf "job %d iterations" id)
            solo.Engine.Job.iterations served.Engine.Job.iterations;
          Alcotest.(check bool) (Printf.sprintf "job %d legal" id) true
            served.Engine.Job.legal)
        ids;
      (* The registry is live over the wire. *)
      let m = client_exn "metrics" (Server.Client.metrics (List.hd clients)) in
      (match List.assoc_opt "metrics" m with
      | Some (J.Obj cells) ->
        Alcotest.(check bool) "server counters recorded" true
          (List.mem_assoc "server/requests" cells)
      | _ -> Alcotest.fail "metrics response lacks cells");
      (* The CLI client: one result line on stdout, exit 0. *)
      let code, out, _ =
        run_place
          [
            "submit"; "--to"; "unix:" ^ sock;
            "--profile"; "fract"; "--scale"; "0.5"; "--seed"; "1";
            "--mode"; "fast"; "--max-steps"; "8"; "--wait";
          ]
      in
      Alcotest.(check int) "cli submit exit code" 0 code;
      (match J.of_string (String.trim out) with
      | Ok line ->
        Alcotest.(check bool) "cli submit done" true
          (J.member "status" line = Some (J.Str "done"));
        (match J.member "result" line with
        | Some r -> (
          match Engine.Job.result_of_json r with
          | Ok jr ->
            Alcotest.(check bool) "cli result legal" true jr.Engine.Job.legal
          | Error e -> Alcotest.failf "cli result does not validate: %s" e)
        | None -> Alcotest.fail "cli submit printed no result")
      | Error e -> Alcotest.failf "cli submit output %S: %s" out e);
      (* Polite shutdown; the child must exit 0. *)
      client_exn "shutdown" (Server.Client.shutdown (List.hd clients));
      List.iter Server.Client.close clients;
      Alcotest.(check int) "server exit code" 0 (reap pid);
      let evs =
        In_channel.with_open_text transcript In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
        |> List.filter_map (fun l ->
               match J.of_string l with
               | Ok v -> (
                 match J.member "ev" v with
                 | Some (J.Num n) -> Some (int_of_float n)
                 | _ -> None)
               | Error e -> Alcotest.failf "transcript line %S: %s" l e)
      in
      Alcotest.(check bool) "transcript numbers events" true (evs <> []);
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "event numbers strictly increasing" true
        (increasing evs))

(* A job of about 4 s: with the 4 s drain grace below, the server stays
   up for seconds after SIGTERM, whether the grace cancels this job or
   it finishes and the next queued one is cancelled instead.  The
   routability goal (congestion refreshes, a final Grouter route) keeps
   it that long; under the wirelength goal industry2 places in about
   0.5 s, short enough for both jobs to finish before the submit that
   must be refused as shutting_down. *)
let slow_spec i =
  Engine.Job.spec
    ~source:(Engine.Source.Profile { name = "industry2"; scale = 1.0; seed = 7 + i })
    ~objective:(Engine.Objective.make ~goal:Engine.Objective.Routability ())
    ()

(* Park a [wait] for job [id] on a fresh connection to [sock], and
   return once the server has dispatched it: the [status] request
   pipelined behind it on the same connection is answered only after
   the wait was parked.  The returned function blocks (at most 60 s)
   for the wait's answer. *)
let park_wait sock id =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  let ic = Unix.in_channel_of_descr fd in
  let req =
    Printf.sprintf
      "{\"seq\":1,\"cmd\":\"wait\",\"id\":%d}\n\
       {\"seq\":2,\"cmd\":\"status\",\"id\":%d}\n"
      id id
  in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let replies = Hashtbl.create 2 in
  let rec reply seq =
    match Hashtbl.find_opt replies seq with
    | Some v -> v
    | None ->
      (match J.of_string (input_line ic) with
      | Ok v -> (
        match J.member "seq" v with
        | Some (J.Num n) -> Hashtbl.replace replies (int_of_float n) v
        | _ -> ())
      | Error e -> Alcotest.failf "bad response line: %s" e);
      reply seq
  in
  ignore (reply 2);
  fun () ->
    let v = reply 1 in
    close_in ic;
    v

(* Admission control and graceful drain on one server: fill the bound,
   meet a typed overloaded refusal (never a dropped connection), then
   SIGTERM mid-load — the parked wait must still be answered, with the
   job degraded to a legal best-so-far placement, and the server must
   exit 0 with every accepted job terminal. *)
let test_admission_and_sigterm_drain () =
  let sock = temp_sock () in
  let address = Server.Address.Unix_path sock in
  let pid =
    spawn_server
      [
        "--listen"; "unix:" ^ sock;
        "--concurrency"; "1";
        "--max-pending"; "1";
        "--drain-grace"; "4";
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let c = connect_exn address in
      client_exn "subscribe" (Server.Client.subscribe c);
      let id1 = client_exn "submit A" (Server.Client.submit c (slow_spec 0)) in
      (* Wait until A occupies the run slot, so the queue count below is
         deterministic. *)
      let rec await_running tries =
        if tries = 0 then Alcotest.fail "job 1 never started";
        match client_exn "status" (Server.Client.status c id1) with
        | "queued" ->
          Unix.sleepf 0.02;
          await_running (tries - 1)
        | _ -> ()
      in
      await_running 500;
      let id2 = client_exn "submit B" (Server.Client.submit c (slow_spec 1)) in
      (* Bound hit: the refusal is typed and carries a retry hint. *)
      (match Server.Client.submit c (slow_spec 2) with
      | Ok id -> Alcotest.failf "submit beyond the bound accepted as %d" id
      | Error (Server.Client.Refused e) ->
        Alcotest.(check bool) "overloaded code" true (e.P.code = P.Overloaded);
        (match e.P.retry_after_ms with
        | Some ms -> Alcotest.(check bool) "retry hint sane" true (ms >= 250)
        | None -> Alcotest.fail "overloaded without retry_after_ms")
      | Error (Server.Client.Transport msg) ->
        Alcotest.failf "overload dropped the connection: %s" msg);
      (* Park a wait for A on a second connection before the signal, so
         the drain must answer it: a wait sent after SIGTERM could reach
         a server that has already drained and exited. *)
      let wait_a = park_wait sock id1 in
      (* SIGTERM mid-load: drain begins; new submissions are refused as
         shutting_down. *)
      Unix.kill pid Sys.sigterm;
      Unix.sleepf 0.1;
      (match Server.Client.submit c (slow_spec 3) with
      | Ok id -> Alcotest.failf "draining server accepted job %d" id
      | Error (Server.Client.Refused e) ->
        Alcotest.(check bool) "shutting_down code" true
          (e.P.code = P.Shutting_down)
      | Error (Server.Client.Transport msg) ->
        Alcotest.failf "drain dropped the connection: %s" msg);
      (* The parked wait is answered once the grace expires and the job
         is cooperatively cancelled — with its legalised best-so-far
         placement embedded. *)
      let answer = wait_a () in
      Alcotest.(check bool) "wait A answered ok" true
        (J.member "ok" answer = Some (J.Bool true));
      let status =
        match J.member "status" answer with Some (J.Str s) -> s | _ -> ""
      in
      Alcotest.(check bool) "job 1 terminal" true
        (status = "cancelled" || status = "done");
      (match J.member "result" answer with
      | Some r -> (
        match Engine.Job.result_of_json r with
        | Ok jr ->
          Alcotest.(check bool) "best-so-far is legal" true jr.Engine.Job.legal
        | Error e -> Alcotest.failf "result does not validate: %s" e)
      | None -> Alcotest.fail "wait response lacks the result");
      (* Both accepted jobs reached a terminal state before exit: the
         subscribed connection saw their finished events. *)
      let finished = Hashtbl.create 4 in
      let rec collect tries =
        if Hashtbl.length finished < 2 && tries > 0 then (
          match Server.Client.next_event ~timeout_s:0.5 c with
          | Ok (Some ev) ->
            (match (J.member "event" ev, J.member "id" ev) with
            | Some (J.Str "finished"), Some (J.Num id) ->
              Hashtbl.replace finished (int_of_float id) ()
            | _ -> ());
            collect (tries - 1)
          | Ok None -> collect (tries - 1)
          | Error _ -> ())
      in
      collect 40;
      Alcotest.(check bool) "finished event for job 1" true
        (Hashtbl.mem finished id1);
      Alcotest.(check bool) "finished event for job 2" true
        (Hashtbl.mem finished id2);
      Server.Client.close c;
      Alcotest.(check int) "SIGTERM drain exits 0" 0 (reap pid))

(* An oversized request line is answered with a parse error, and the
   connection keeps working. *)
let test_oversized_line_survives () =
  let sock = temp_sock () in
  let address = Server.Address.Unix_path sock in
  let pid = spawn_server [ "--listen"; "unix:" ^ sock ] in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let c = connect_exn address in
      (* Past the server's 1 MiB line bound. *)
      (match
         Server.Client.request c
           [ ("cmd", J.Str (String.make (2 * 1024 * 1024) 'x')) ]
       with
      | Ok _ -> Alcotest.fail "oversized line accepted"
      | Error (Server.Client.Refused e) ->
        Alcotest.(check bool) "parse code" true (e.P.code = P.Parse)
      | Error (Server.Client.Transport msg) ->
        Alcotest.failf "oversized line killed the connection: %s" msg);
      (* Still serviceable afterwards. *)
      let jobs = client_exn "jobs" (Server.Client.jobs c) in
      Alcotest.(check int) "no jobs" 0 (List.length jobs);
      client_exn "shutdown" (Server.Client.shutdown c);
      Server.Client.close c;
      Alcotest.(check int) "clean exit" 0 (reap pid))

(* The sharded server path: --domains 2 auto-selects worker domains, so
   job slices execute off the poll loop while connections stay serviced.
   Results must still be bitwise what solo runs produce, and the metrics
   response must expose the per-shard scheduler counters. *)
let test_sharded_server_bitwise_and_metrics () =
  let sock = temp_sock () in
  let address = Server.Address.Unix_path sock in
  let pid =
    spawn_server
      [ "--listen"; "unix:" ^ sock; "--concurrency"; "3"; "--domains"; "2" ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let n = 4 in
      let clients = List.init n (fun _ -> connect_exn address) in
      let ids =
        List.mapi
          (fun i c ->
            (i, c, client_exn "submit" (Server.Client.submit c (fast_spec i))))
          clients
      in
      List.iter
        (fun (i, c, id) ->
          let status, result = client_exn "wait" (Server.Client.wait c id) in
          Alcotest.(check string) (Printf.sprintf "job %d done" id) "done"
            status;
          let served =
            match result with
            | Some r -> (
              match Engine.Job.result_of_json r with
              | Ok jr -> jr
              | Error e -> Alcotest.failf "result does not validate: %s" e)
            | None -> Alcotest.failf "wait response for %d lacks a result" id
          in
          let solo = solo_result (fast_spec i) in
          Alcotest.(check bool)
            (Printf.sprintf "job %d hpwl bitwise" id)
            true
            (Int64.bits_of_float served.Engine.Job.hpwl
            = Int64.bits_of_float solo.Engine.Job.hpwl);
          Alcotest.(check int)
            (Printf.sprintf "job %d iterations" id)
            solo.Engine.Job.iterations served.Engine.Job.iterations)
        ids;
      let m = client_exn "metrics" (Server.Client.metrics (List.hd clients)) in
      (match List.assoc_opt "scheduler" m with
      | Some (J.Obj sched_fields) ->
        (match List.assoc_opt "shards" sched_fields with
        | Some (J.Num s) -> Alcotest.(check int) "shards" 2 (int_of_float s)
        | _ -> Alcotest.fail "scheduler field lacks shards");
        (match List.assoc_opt "per_shard" sched_fields with
        | Some (J.Arr rows) ->
          Alcotest.(check int) "per-shard rows" 2 (List.length rows);
          let slices =
            List.fold_left
              (fun acc row ->
                match J.member "slices" row with
                | Some (J.Num v) -> acc + int_of_float v
                | _ -> Alcotest.fail "per-shard row lacks slices")
              0 rows
          in
          Alcotest.(check bool) "workers executed the slices" true (slices > 0)
        | _ -> Alcotest.fail "scheduler field lacks per_shard")
      | _ -> Alcotest.fail "metrics response lacks scheduler");
      client_exn "shutdown" (Server.Client.shutdown (List.hd clients));
      List.iter Server.Client.close clients;
      Alcotest.(check int) "sharded server exit code" 0 (reap pid))

(* ------------------------------------------------------------------ *)
(* Stdio serve smoke                                                    *)

(* Run [place serve ARGS] on the stdio protocol with [cmds] as its input
   and return the parsed lines of its --transcript. *)
let serve_transcript args cmds =
  let cmd_file = Filename.temp_file "serve_smoke" ".jsonl"
  and transcript = Filename.temp_file "serve_smoke" ".transcript.jsonl" in
  Out_channel.with_open_text cmd_file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) cmds);
  let exe = place_exe () in
  let argv =
    Array.of_list ((exe :: "serve" :: args) @ [ "--transcript"; transcript ])
  in
  let input = Unix.openfile cmd_file [ Unix.O_RDONLY ] 0
  and null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close input; Unix.close null)
      (fun () -> Unix.create_process exe argv input null null)
  in
  Alcotest.(check int) "serve exit code" 0 (reap pid);
  let lines =
    In_channel.with_open_text transcript In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match J.of_string l with
           | Ok v -> v
           | Error e -> Alcotest.failf "transcript line %S: %s" l e)
  in
  List.iter Sys.remove [ cmd_file; transcript ];
  lines

(* [(id, result)] of every successful result response. *)
let transcript_results lines =
  List.filter_map
    (fun l ->
      match (J.member "ok" l, J.member "id" l, J.member "result" l) with
      | Some (J.Bool true), Some (J.Num id), Some r -> Some (int_of_float id, r)
      | _ -> None)
    lines

let field name r =
  match J.member name r with
  | Some v -> v
  | None -> Alcotest.failf "result lacks %s" name

let num name r =
  match field name r with
  | J.Num v -> v
  | _ -> Alcotest.failf "result field %s is not a number" name

let fract_job ?(extra = "") seed =
  Printf.sprintf
    {|{"cmd":"submit","job":{"profile":"fract","scale":0.5,"seed":%d,"objective":{"mode":"fast"},"max_steps":12%s}}|}
    seed extra

(* The job engine on the stdio protocol: three jobs interleaved, one cut
   at a checkpoint by cancellation and resumed — bitwise equal to the
   uninterrupted run — and a routability job that alone carries routed
   fields.  Then the same seeds on two worker domains must reproduce the
   single-domain results bitwise, with the per-shard counters live in
   the metrics response. *)
let test_stdio_serve_smoke () =
  let ck = Filename.temp_file "serve_smoke" ".ck.json" in
  Sys.remove ck;
  let d1 =
    serve_transcript [ "--concurrency"; "3" ]
      [
        fract_job 1;
        fract_job 2;
        fract_job 3
          ~extra:(Printf.sprintf {|,"checkpoint":%S,"checkpoint_every":5|} ck);
        {|{"cmd":"step","turns":24}|};
        {|{"cmd":"cancel","id":3}|};
        {|{"cmd":"drain"}|};
        fract_job 3 ~extra:(Printf.sprintf {|,"resume_from":%S|} ck);
        fract_job 3;
        {|{"cmd":"submit","job":{"profile":"fract","scale":0.5,"seed":4,"max_steps":12,"objective":{"goal":"routability"}}}|};
        {|{"cmd":"drain"}|};
        {|{"cmd":"result","id":1}|};
        {|{"cmd":"result","id":2}|};
        {|{"cmd":"result","id":3}|};
        {|{"cmd":"result","id":4}|};
        {|{"cmd":"result","id":5}|};
        {|{"cmd":"result","id":6}|};
        {|{"cmd":"shutdown"}|};
      ]
  in
  if Sys.file_exists ck then Sys.remove ck;
  Alcotest.(check bool) "job 3 checkpointed" true
    (List.exists
       (fun l ->
         J.member "event" l = Some (J.Str "checkpointed")
         && J.member "id" l = Some (J.Num 3.))
       d1);
  let results = transcript_results d1 in
  let result id =
    match List.assoc_opt id results with
    | Some r -> r
    | None -> Alcotest.failf "no result for job %d" id
  in
  Alcotest.(check (list (pair int string)))
    "statuses"
    [
      (1, "done"); (2, "done"); (3, "cancelled"); (4, "done"); (5, "done");
      (6, "done");
    ]
    (List.map
       (fun (id, r) ->
         match field "status" r with
         | J.Str s -> (id, s)
         | _ -> Alcotest.failf "job %d status is not a string" id)
       results);
  Alcotest.(check bool) "cancelled job is legal" true
    (field "legal" (result 3) = J.Bool true);
  (* Numbers round-trip bit-for-bit through the transcript. *)
  Alcotest.(check bool) "resumed hpwl bitwise" true
    (Int64.bits_of_float (num "hpwl" (result 4))
    = Int64.bits_of_float (num "hpwl" (result 5)));
  Alcotest.(check bool) "resumed iterations" true
    (num "iterations" (result 4) = num "iterations" (result 5));
  Alcotest.(check bool) "routability job routed" true
    (field "routed_overflow" (result 6) <> J.Null
    && field "routed_max_overflow" (result 6) <> J.Null);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d has no routed overflow" id)
        true
        (field "routed_overflow" (result id) = J.Null))
    [ 1; 2; 3; 4; 5 ];
  let d2 =
    serve_transcript
      [ "--concurrency"; "3"; "--domains"; "2" ]
      [
        fract_job 1;
        fract_job 2;
        fract_job 3;
        {|{"cmd":"drain"}|};
        {|{"cmd":"result","id":1}|};
        {|{"cmd":"result","id":2}|};
        {|{"cmd":"result","id":3}|};
        {|{"cmd":"metrics"}|};
        {|{"cmd":"shutdown"}|};
      ]
  in
  let sharded = transcript_results d2 in
  (* Seeds 1..3 are jobs 1..3 here; seed 3's uninterrupted run was job 5
     above. *)
  List.iter
    (fun (d2_id, d1_id) ->
      let r =
        match List.assoc_opt d2_id sharded with
        | Some r -> r
        | None -> Alcotest.failf "no 2-domain result for job %d" d2_id
      in
      Alcotest.(check bool)
        (Printf.sprintf "2-domain job %d done" d2_id)
        true
        (field "status" r = J.Str "done");
      Alcotest.(check bool)
        (Printf.sprintf "2-domain job %d hpwl bitwise" d2_id)
        true
        (Int64.bits_of_float (num "hpwl" r)
        = Int64.bits_of_float (num "hpwl" (result d1_id)));
      Alcotest.(check bool)
        (Printf.sprintf "2-domain job %d iterations" d2_id)
        true
        (num "iterations" r = num "iterations" (result d1_id)))
    [ (1, 1); (2, 2); (3, 5) ];
  let scheduler =
    match
      List.find_map
        (fun l ->
          match (J.member "ok" l, J.member "scheduler" l) with
          | Some (J.Bool true), Some s -> Some s
          | _ -> None)
        d2
    with
    | Some s -> s
    | None -> Alcotest.fail "no metrics response"
  in
  Alcotest.(check bool) "two shards" true
    (J.member "shards" scheduler = Some (J.Num 2.));
  match J.member "per_shard" scheduler with
  | Some (J.Arr rows) ->
    Alcotest.(check int) "per-shard rows" 2 (List.length rows);
    Alcotest.(check bool) "workers executed slices" true
      (List.fold_left (fun acc row -> acc +. num "slices" row) 0. rows > 0.)
  | _ -> Alcotest.fail "scheduler lacks per_shard"

let suite =
  [
    Alcotest.test_case "frame: chunked feeds" `Quick test_frame_chunks;
    Alcotest.test_case "frame: many lines one feed" `Quick
      test_frame_many_lines_one_feed;
    Alcotest.test_case "frame: overflow resync" `Quick test_frame_overflow;
    Alcotest.test_case "frame: reset" `Quick test_frame_reset;
    Alcotest.test_case "address: parse" `Quick test_address_parse;
    Alcotest.test_case "address: roundtrip" `Quick test_address_roundtrip;
    Alcotest.test_case "protocol: v2 golden transcript" `Quick test_golden_v2;
    Alcotest.test_case "protocol: legacy job fields refused" `Quick
      test_legacy_fields_refused;
    Alcotest.test_case "protocol: codes round-trip" `Quick test_codes_roundtrip;
    QCheck_alcotest.to_alcotest fuzz_serve_responds;
    Alcotest.test_case "socket: admission + SIGTERM drain" `Quick
      test_admission_and_sigterm_drain;
    Alcotest.test_case "socket: oversized line survives" `Quick
      test_oversized_line_survives;
    Alcotest.test_case "socket: 8 clients bitwise-equal to solo" `Quick
      test_eight_clients_bitwise_equal;
    Alcotest.test_case "socket: sharded server bitwise + shard metrics" `Quick
      test_sharded_server_bitwise_and_metrics;
    Alcotest.test_case "stdio serve: resume and 2 domains bitwise" `Slow
      test_stdio_serve_smoke;
    Alcotest.test_case "protocol: unopenable trace" `Quick test_unopenable_trace;
  ]
