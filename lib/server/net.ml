module P = Engine.Protocol
module J = Obs.Json

type config = {
  address : Address.t;
  concurrency : int;
  domains : int;
  max_pending : int;
  max_conns : int;
  request_timeout_s : float;
  idle_timeout_s : float;
  drain_grace_s : float;
  max_line : int;
  transcript : string option;
}

let config address =
  {
    address;
    concurrency = 2;
    domains = 1;
    max_pending = 64;
    max_conns = 128;
    request_timeout_s = 300.;
    idle_timeout_s = 0.;
    drain_grace_s = 30.;
    max_line = 1 lsl 20;
    transcript = None;
  }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  frame : Frame.t;
  out : Buffer.t;
  mutable out_off : int;  (* bytes of [out] already written *)
  mutable subscribed : bool;
  mutable last_activity : float;
  mutable closing : bool;  (* flush remaining output, then close *)
}

(* A parked wait/drain response: fired by job completion or scheduler
   idleness, or expired by the request timeout. *)
type waiter = {
  wcid : int;
  wseq : J.t option;
  target : [ `Job of Engine.Scheduler.id | `Idle ];
  parked_at : float;
  expires_at : float;
  start_turns : int;
}

type state = {
  cfg : config;
  sched : Engine.Scheduler.t;
  listen_fd : Unix.file_descr;
  conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;
  mutable waiters : waiter list;
  mutable ev : int;  (* monotonic event counter *)
  ring : (int * string) Queue.t;  (* recent event lines for from_ev replay *)
  mutable turns : int;  (* total scheduler turns stepped *)
  mutable draining : bool;
  mutable drain_started : float;
  mutable stop : bool;
  transcript_oc : out_channel option;
}

let ring_cap = 1024

let echo st line =
  match st.transcript_oc with
  | Some oc ->
    output_string oc line;
    output_char oc '\n';
    flush oc
  | None -> ()

let int_ n = J.Num (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Output plumbing                                                      *)

let send_line st conn line =
  Buffer.add_string conn.out line;
  Buffer.add_char conn.out '\n';
  echo st line

let respond st conn ~seq reply =
  Obs.Registry.incr "server/responses";
  (match reply with
  | P.Refuse e ->
    Obs.Registry.incr "server/errors";
    Obs.Registry.incr (Printf.sprintf "server/errors/%s" (P.code_to_string e.P.code))
  | P.Reply _ -> ());
  send_line st conn (J.to_string (P.render ~seq reply))

let drop_conn st conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Hashtbl.remove st.conns conn.cid;
  st.waiters <- List.filter (fun w -> w.wcid <> conn.cid) st.waiters;
  Obs.Registry.incr "server/conns_closed"

(* Flush as much pending output as the socket accepts.  Returns [false]
   when the connection died under us. *)
let flush_out st conn =
  let data = Buffer.contents conn.out in
  let len = String.length data in
  let rec go () =
    if conn.out_off >= len then begin
      Buffer.clear conn.out;
      conn.out_off <- 0;
      true
    end
    else
      match
        Unix.write_substring conn.fd data conn.out_off (len - conn.out_off)
      with
      | 0 -> true
      | n ->
        conn.out_off <- conn.out_off + n;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        true
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        drop_conn st conn;
        false
  in
  go ()

let has_output conn = Buffer.length conn.out - conn.out_off > 0

(* ------------------------------------------------------------------ *)
(* Events                                                               *)

let broadcast_event st e =
  st.ev <- st.ev + 1;
  let line = J.to_string (P.event_to_json ~ev:st.ev e) in
  Queue.push (st.ev, line) st.ring;
  while Queue.length st.ring > ring_cap do
    ignore (Queue.pop st.ring)
  done;
  echo st line;
  Hashtbl.iter
    (fun _ conn ->
      if conn.subscribed && not conn.closing then begin
        Buffer.add_string conn.out line;
        Buffer.add_char conn.out '\n'
      end)
    st.conns

let wait_reply st id status =
  let base =
    [ ("id", int_ id); ("status", J.Str (Engine.Job.status_to_string status)) ]
  in
  (* Embed the result so a client parked on [wait] needs no further
     round trip — a draining server can answer and exit. *)
  match Engine.Scheduler.result st.sched id with
  | Some r -> P.Reply (base @ [ ("result", Engine.Job.result_to_json r) ])
  | None -> P.Reply base

let fire_waiters_for_job st id status =
  let fired, rest =
    List.partition (fun w -> w.target = `Job id) st.waiters
  in
  st.waiters <- rest;
  List.iter
    (fun w ->
      match Hashtbl.find_opt st.conns w.wcid with
      | None -> ()
      | Some conn ->
        Obs.Registry.observe "server/wait_ms"
          ((Unix.gettimeofday () -. w.parked_at) *. 1000.);
        respond st conn ~seq:w.wseq (wait_reply st id status))
    fired

let fire_idle_waiters st =
  if not (Engine.Scheduler.busy st.sched) then begin
    let fired, rest = List.partition (fun w -> w.target = `Idle) st.waiters in
    st.waiters <- rest;
    List.iter
      (fun w ->
        match Hashtbl.find_opt st.conns w.wcid with
        | None -> ()
        | Some conn ->
          Obs.Registry.observe "server/wait_ms"
            ((Unix.gettimeofday () -. w.parked_at) *. 1000.);
          respond st conn ~seq:w.wseq
            (P.Reply [ ("stepped", int_ (st.turns - w.start_turns)) ]))
      fired
  end

let on_event st e =
  broadcast_event st e;
  match e with
  | Engine.Scheduler.Finished (id, status) ->
    Obs.Registry.incr "server/jobs_finished";
    fire_waiters_for_job st id status
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                       *)

let begin_drain st =
  if not st.draining then begin
    st.draining <- true;
    st.drain_started <- Unix.gettimeofday ();
    Obs.Registry.incr "server/drains"
  end

(* ------------------------------------------------------------------ *)
(* Request execution (asynchronous server semantics)                    *)

let retry_after_ms st =
  let backlog = Engine.Scheduler.queued st.sched + Engine.Scheduler.running st.sched in
  min 15_000 (max 250 (250 * backlog))

let exec st conn seq req =
  match req with
  | P.Submit _ ->
    if st.draining then
      respond st conn ~seq
        (P.Refuse (P.err P.Shutting_down "server is draining; resubmit elsewhere"))
    else if Engine.Scheduler.queued st.sched >= st.cfg.max_pending then begin
      Obs.Registry.incr "server/shed";
      respond st conn ~seq
        (P.Refuse
           (P.err ~retry_after_ms:(retry_after_ms st) P.Overloaded
              (Printf.sprintf "%d jobs pending (bound %d)"
                 (Engine.Scheduler.queued st.sched)
                 st.cfg.max_pending)))
    end
    else begin
      Obs.Registry.incr "server/submits";
      respond st conn ~seq (fst (P.handle st.sched req))
    end
  | P.Status _ | P.Result _ | P.Cancel _ | P.Jobs | P.Metrics ->
    respond st conn ~seq (fst (P.handle st.sched req))
  | P.Step _ ->
    (* Scheduling is autonomous here; the request is acknowledged but
       lends the client no turns. *)
    respond st conn ~seq (P.Reply [ ("stepped", int_ 0) ])
  | P.Drain ->
    if Engine.Scheduler.busy st.sched then
      st.waiters <-
        {
          wcid = conn.cid;
          wseq = seq;
          target = `Idle;
          parked_at = Unix.gettimeofday ();
          expires_at = Unix.gettimeofday () +. st.cfg.request_timeout_s;
          start_turns = st.turns;
        }
        :: st.waiters
    else respond st conn ~seq (P.Reply [ ("stepped", int_ 0) ])
  | P.Wait id -> (
    match Engine.Scheduler.status st.sched id with
    | None ->
      respond st conn ~seq
        (P.Refuse (P.err P.Unknown_id (Printf.sprintf "unknown job id %d" id)))
    | Some s when Engine.Job.terminal s -> respond st conn ~seq (wait_reply st id s)
    | Some _ ->
      st.waiters <-
        {
          wcid = conn.cid;
          wseq = seq;
          target = `Job id;
          parked_at = Unix.gettimeofday ();
          expires_at = Unix.gettimeofday () +. st.cfg.request_timeout_s;
          start_turns = st.turns;
        }
        :: st.waiters)
  | P.Subscribe { from_ev } ->
    conn.subscribed <- true;
    (match from_ev with
    | Some from ->
      Queue.iter
        (fun (ev, line) ->
          if ev > from then begin
            Buffer.add_string conn.out line;
            Buffer.add_char conn.out '\n'
          end)
        st.ring
    | None -> ());
    respond st conn ~seq
      (P.Reply [ ("subscribed", J.Bool true); ("ev", int_ st.ev) ])
  | P.Shutdown ->
    begin_drain st;
    respond st conn ~seq (P.Reply [ ("shutdown", J.Bool true) ])

let dispatch st conn line =
  Obs.Registry.incr "server/requests";
  let t0 = Unix.gettimeofday () in
  echo st line;
  (match J.of_string line with
  | Error msg ->
    respond st conn ~seq:None (P.Refuse (P.err P.Parse ("bad JSON: " ^ msg)))
  | Ok v -> (
    let seq = P.seq_of_json v in
    match P.request_of_json v with
    | Error e -> respond st conn ~seq (P.Refuse e)
    | Ok req -> exec st conn seq req));
  Obs.Registry.observe "server/request_ms" ((Unix.gettimeofday () -. t0) *. 1000.)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                 *)

let accept_conns st =
  let rec go () =
    match Unix.accept ~cloexec:true st.listen_fd with
    | fd, _addr ->
      Unix.set_nonblock fd;
      st.next_cid <- st.next_cid + 1;
      let conn =
        {
          fd;
          cid = st.next_cid;
          frame = Frame.create ~max_line:st.cfg.max_line ();
          out = Buffer.create 512;
          out_off = 0;
          subscribed = false;
          last_activity = Unix.gettimeofday ();
          closing = false;
        }
      in
      Hashtbl.replace st.conns conn.cid conn;
      Obs.Registry.incr "server/conns_opened";
      (* Refusals are polite: a typed error line, then close — the
         client never sees a bare dropped connection. *)
      if st.draining then begin
        respond st conn ~seq:None
          (P.Refuse (P.err P.Shutting_down "server is draining"));
        conn.closing <- true
      end
      else if Hashtbl.length st.conns > st.cfg.max_conns then begin
        Obs.Registry.incr "server/shed";
        respond st conn ~seq:None
          (P.Refuse
             (P.err ~retry_after_ms:(retry_after_ms st) P.Overloaded
                (Printf.sprintf "%d connections (bound %d)"
                   (Hashtbl.length st.conns) st.cfg.max_conns)));
        conn.closing <- true
      end;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  go ()

let scratch = Bytes.create 65536

let read_conn st conn =
  match Unix.read conn.fd scratch 0 (Bytes.length scratch) with
  | 0 ->
    (* EOF: serve whatever complete lines arrived, then close. *)
    conn.closing <- true
  | n ->
    conn.last_activity <- Unix.gettimeofday ();
    Frame.feed conn.frame (Bytes.sub_string scratch 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    drop_conn st conn

let service_frames st conn =
  let rec go () =
    match Frame.next conn.frame with
    | None -> ()
    | Some `Overflow ->
      respond st conn ~seq:None
        (P.Refuse
           (P.err P.Parse
              (Printf.sprintf "request line exceeds %d bytes" st.cfg.max_line)));
      go ()
    | Some (`Line line) ->
      let line = String.trim line in
      if line <> "" then dispatch st conn line;
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The loop                                                             *)

let expire_waiters st now =
  let expired, live = List.partition (fun w -> now > w.expires_at) st.waiters in
  st.waiters <- live;
  List.iter
    (fun w ->
      match Hashtbl.find_opt st.conns w.wcid with
      | None -> ()
      | Some conn ->
        let what =
          match w.target with
          | `Job id -> Printf.sprintf "job %d is still running" id
          | `Idle -> "scheduler is still busy"
        in
        respond st conn ~seq:w.wseq
          (P.Refuse
             (P.err P.Not_terminal
                (Printf.sprintf "wait timed out after %.0f s; %s"
                   st.cfg.request_timeout_s what))))
    expired

let close_idle_conns st now =
  if st.cfg.idle_timeout_s > 0. then begin
    let victims =
      Hashtbl.fold
        (fun _ conn acc ->
          let outstanding =
            conn.subscribed || has_output conn
            || List.exists (fun w -> w.wcid = conn.cid) st.waiters
          in
          if
            (not outstanding)
            && now -. conn.last_activity > st.cfg.idle_timeout_s
          then conn :: acc
          else acc)
        st.conns []
    in
    List.iter
      (fun conn ->
        Obs.Registry.incr "server/idle_closed";
        drop_conn st conn)
      victims
  end

(* One bounded stretch of placement work between polls: at most
   [budget] seconds, at slice granularity, so service latency stays
   bounded by one transformation.  With worker domains the workers run
   the slices; the coordinator only pumps queued lifecycle events (the
   notify pipe in the poll set wakes us the moment one arrives).  True
   when the loop itself still has runnable work, so the next poll must
   not sleep. *)
let step_slice st ~budget =
  if Engine.Scheduler.workers st.sched > 0 then begin
    Engine.Scheduler.pump st.sched;
    false
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let rec go () =
      if Unix.gettimeofday () -. t0 >= budget then true
      else if Engine.Scheduler.step st.sched then begin
        st.turns <- st.turns + 1;
        Obs.Registry.incr "server/turns";
        go ()
      end
      else false
    in
    go ()
  end

let drain_tick st now =
  if st.draining then begin
    if
      Engine.Scheduler.busy st.sched
      && now -. st.drain_started > st.cfg.drain_grace_s
    then begin
      (* Grace expired: degrade in-flight jobs to their legal
         best-so-far placements (the scheduler's cancellation path). *)
      let n = Engine.Scheduler.cancel_all st.sched in
      if n > 0 then Obs.Registry.incr ~by:(float_of_int n) "server/drain_cancelled"
    end;
    if (not (Engine.Scheduler.busy st.sched)) && st.waiters = [] then begin
      let all_flushed =
        Hashtbl.fold (fun _ c acc -> acc && not (has_output c)) st.conns true
      in
      if all_flushed then st.stop <- true
    end
  end

let cleanup st =
  (* Join worker domains first so no event fires mid-teardown. *)
  Engine.Scheduler.stop st.sched;
  Hashtbl.iter (fun _ conn -> ignore (flush_out st conn)) st.conns;
  Hashtbl.iter
    (fun _ conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ())
    st.conns;
  Hashtbl.reset st.conns;
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  (match st.cfg.address with
  | Address.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
  | Address.Tcp _ -> ());
  match st.transcript_oc with Some oc -> close_out oc | None -> ()

let bind_listener address =
  match Address.sockaddr address with
  | Error msg -> Error msg
  | Ok sockaddr -> (
    let domain = Unix.domain_of_sockaddr sockaddr in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    (match address with
    | Address.Unix_path p -> if Sys.file_exists p then Sys.remove p
    | Address.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
    match
      Unix.bind fd sockaddr;
      Unix.listen fd 64;
      Unix.set_nonblock fd
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" (Address.to_string address)
           (Unix.error_message e)))

let run cfg =
  match bind_listener cfg.address with
  | Error _ as e -> e
  | Ok listen_fd ->
    Obs.Registry.set_enabled true;
    let transcript_oc = Option.map open_out cfg.transcript in
    (* The scheduler is created before the state it reports into; the
       indirection closes the cycle. *)
    let handler = ref (fun (_ : Engine.Scheduler.event) -> ()) in
    let sched =
      Engine.Scheduler.create ~concurrency:cfg.concurrency ~domains:cfg.domains
        ~on_event:(fun e -> !handler e)
        ()
    in
    let st =
      {
        cfg;
        sched;
        listen_fd;
        conns = Hashtbl.create 32;
        next_cid = 0;
        waiters = [];
        ev = 0;
        ring = Queue.create ();
        turns = 0;
        draining = false;
        drain_started = 0.;
        stop = false;
        transcript_oc;
      }
    in
    handler := on_event st;
    let want_drain = ref false in
    let old_term =
      Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> want_drain := true))
    in
    let old_int =
      Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> want_drain := true))
    in
    let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let runnable = ref false in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigterm old_term;
        Sys.set_signal Sys.sigint old_int;
        Sys.set_signal Sys.sigpipe old_pipe)
      (fun () ->
        while not st.stop do
          if !want_drain then begin_drain st;
          let now = Unix.gettimeofday () in
          expire_waiters st now;
          close_idle_conns st now;
          drain_tick st now;
          if not st.stop then begin
            let rfds =
              (if st.draining then [] else [ st.listen_fd ])
              @ (match Engine.Scheduler.notify_fd st.sched with
                | Some fd -> [ fd ]
                | None -> [])
              @ Hashtbl.fold
                  (fun _ c acc -> if c.closing then acc else c.fd :: acc)
                  st.conns []
            in
            let wfds =
              Hashtbl.fold
                (fun _ c acc -> if has_output c then c.fd :: acc else acc)
                st.conns []
            in
            (* Poll eagerly while the loop itself has runnable slices;
               otherwise sleep — worker domains make the progress and
               the notify pipe interrupts the select when an event needs
               pumping. *)
            let timeout = if !runnable then 0. else 0.05 in
            let readable, writable =
              match Unix.select rfds wfds [] timeout with
              | r, w, _ -> (r, w)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
            in
            if List.memq st.listen_fd readable then accept_conns st;
            (* Reads and dispatch (responses land in out buffers). *)
            Hashtbl.iter
              (fun _ conn ->
                if List.memq conn.fd readable then begin
                  read_conn st conn;
                  if Hashtbl.mem st.conns conn.cid then service_frames st conn
                end)
              st.conns;
            ignore writable;
            (* A slice of placement work. *)
            runnable := step_slice st ~budget:0.05;
            fire_idle_waiters st;
            (* Flush every connection with pending output — the sockets
               are almost always writable, so responses leave in the
               same iteration that produced them; [wfds] above only
               exists to wake the loop when a blocked writer frees up. *)
            let writers =
              Hashtbl.fold
                (fun _ c acc -> if has_output c then c :: acc else acc)
                st.conns []
            in
            List.iter (fun conn -> ignore (flush_out st conn)) writers;
            let finished_closing =
              Hashtbl.fold
                (fun _ conn acc ->
                  if conn.closing then begin
                    ignore (flush_out st conn);
                    if
                      Hashtbl.mem st.conns conn.cid && not (has_output conn)
                    then conn :: acc
                    else acc
                  end
                  else acc)
                st.conns []
            in
            List.iter (fun conn -> drop_conn st conn) finished_closing
          end
        done;
        cleanup st);
    Ok ()
