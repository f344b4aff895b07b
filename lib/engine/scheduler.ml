type id = int

type final = { global : Netlist.Placement.t; legal : Netlist.Placement.t }

type event =
  | Submitted of id
  | Started of id
  | Checkpointed of id * string
  | Finished of id * Job.status * final option

(* Live state of a started job, dropped once the job is terminal.  Only
   the domain currently executing the job's slice touches it. *)
type running = {
  circuit : Netlist.Circuit.t;
  vcycle : Kraftwerk.Cluster.run;
      (* what the job executes: a one-level run for the flat flow *)
  hooks : Kraftwerk.Placer.hooks;
  crit : Timing.Criticality.t option;  (* timing-driven jobs *)
  sink : Obs.Sink.t option;  (* private per-job telemetry sink *)
  trace_oc : out_channel option;
  iters_emitted : int ref;
  started_at : float;
  mutable since_checkpoint : int;
  mutable checkpoint_written : string option;
}

type entry = {
  id : id;
  spec : Job.spec;
  mutable status : Job.status;
  mutable run : running option;
  mutable res : Job.result option;
  mutable cancel_requested : bool;
}

type shard_stats = {
  mutable slices : int;
  mutable busy_s : float;
  mutable max_slice_s : float;
}

type shard_metric = {
  shard : int;
  m_slices : int;
  m_busy_s : float;
  m_busy_frac : float;
  m_max_slice_s : float;
}

type t = {
  concurrency : int;
  workers : int;  (* worker domains; 0 = the coordinator runs the loop *)
  on_event : event -> unit;  (* invoked only on the coordinator domain *)
  mutable next_id : int;  (* ids are 1..next_id, in submission order *)
  entries : (id, entry) Hashtbl.t;
  mutable waiting : entry list;
      (* queued jobs in claim order: priority descending, then
         submission *)
  mutable running : int;  (* jobs claimed and not yet terminal *)
  (* [lock] guards every mutable field above plus the run queue, pending
     events and stats; slices and finishing passes run outside it.
     [cond] is broadcast whenever work or an event becomes available
     (and on stop). *)
  lock : Mutex.t;
  cond : Condition.t;
  runq : entry Queue.t;  (* started jobs, one slice each in turn *)
  pending : event Queue.t;  (* events awaiting delivery by [pump] *)
  stats : shard_stats array;
  created_at : float;
  mutable live : bool;
  mutable opened : bool;
      (* workers take no work before the coordinator's first [pump] *)
  mutable worker_domains : unit Domain.t array;
  mutable notify : (Unix.file_descr * Unix.file_descr) option;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Queue an event for [pump], [t.lock] held. *)
let enqueue_event t ev =
  Queue.add ev t.pending;
  Condition.broadcast t.cond

(* Poke the self-pipe, when there is one, so a select-based coordinator
   wakes up to pump. *)
let poke t =
  match t.notify with
  | None -> ()
  | Some (_, w) -> (
    try ignore (Unix.write w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ())

(* Deliver an event: queued here, dispatched by [pump] on the
   coordinator.  Never called with [t.lock] held: handlers re-enter the
   scheduler's getters. *)
let emit t ev =
  with_lock t (fun () -> enqueue_event t ev);
  poke t

(* Drain the self-pipe and dispatch queued events on the calling
   (coordinator) domain, one at a time, so an event a handler causes is
   still delivered after the ones queued before it. *)
let pump t =
  (* The first pump lets the workers in: jobs submitted before it are
     all queued when they first look, so all are claimed (priority, then
     submission order) before any slice runs, as with the coordinator
     alone.  Only the coordinator writes [opened]. *)
  if not t.opened then
    with_lock t (fun () ->
        t.opened <- true;
        Condition.broadcast t.cond);
  (match t.notify with
  | None -> ()
  | Some (r, _) -> (
    let buf = Bytes.create 256 in
    try
      while Unix.read r buf 0 256 > 0 do
        ()
      done
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()));
  let rec deliver () =
    match with_lock t (fun () -> Queue.take_opt t.pending) with
    | Some ev ->
      t.on_event ev;
      deliver ()
    | None -> ()
  in
  deliver ()

let notify_fd t = Option.map fst t.notify

let workers t = t.workers

(* Insert [e], the newest job, into the claim order: behind every
   waiting job of the same or a higher priority. *)
let rec insert_waiting e = function
  | w :: rest when w.spec.Job.priority >= e.spec.Job.priority ->
    w :: insert_waiting e rest
  | rest -> e :: rest

let submit t spec =
  let id =
    with_lock t (fun () ->
        t.next_id <- t.next_id + 1;
        let e =
          {
            id = t.next_id;
            spec;
            status = Job.Queued;
            run = None;
            res = None;
            cancel_requested = false;
          }
        in
        Hashtbl.replace t.entries e.id e;
        t.waiting <- insert_waiting e t.waiting;
        Condition.broadcast t.cond;
        e.id)
  in
  (* Submission happens on the coordinator, so the event is dispatched
     synchronously: subscribers see [Submitted] before [submit]
     returns. *)
  t.on_event (Submitted id);
  id

let status t id =
  with_lock t (fun () ->
      Option.map (fun e -> e.status) (Hashtbl.find_opt t.entries id))

let result t id =
  with_lock t (fun () ->
      Option.bind (Hashtbl.find_opt t.entries id) (fun e -> e.res))

let jobs t =
  with_lock t (fun () ->
      List.init t.next_id (fun i ->
          (i + 1, (Hashtbl.find t.entries (i + 1)).status)))

let busy_locked t = t.running > 0 || t.waiting <> []

let busy t = with_lock t (fun () -> busy_locked t)

let queued t = with_lock t (fun () -> List.length t.waiting)

let running t = with_lock t (fun () -> t.running)

let shard_metrics t =
  with_lock t (fun () ->
      let uptime = max 1e-9 (Unix.gettimeofday () -. t.created_at) in
      List.init t.workers (fun i ->
          let s = t.stats.(i) in
          {
            shard = i;
            m_slices = s.slices;
            m_busy_s = s.busy_s;
            m_busy_frac = s.busy_s /. uptime;
            m_max_slice_s = s.max_slice_s;
          }))

(* ------------------------------------------------------------------ *)
(* Starting jobs                                                        *)

let ( let* ) = Stdlib.Result.bind

(* What can be rejected before a job is accepted into the queue: the
   submit-time admission check behind the protocol's [bad_spec]
   responses.  Deliberately cheap — existence, not full parses. *)
let validate_spec (spec : Job.spec) =
  let* () = Source.validate spec.Job.source in
  let* () =
    match spec.Job.start with
    | Job.Fresh -> Ok ()
    | Job.Resume file | Job.Warm file ->
      if Sys.file_exists file then Ok ()
      else Error (Printf.sprintf "spec: no such checkpoint %s" file)
  in
  let* () =
    match spec.Job.max_steps with
    | Some n when n < 0 -> Error "spec: max_steps must be non-negative"
    | _ -> Ok ()
  in
  let* () =
    match spec.Job.trace with
    | Some file ->
      let dir = Filename.dirname file in
      if Sys.file_exists dir && Sys.is_directory dir then Ok ()
      else Error (Printf.sprintf "spec: no such directory for trace %s" file)
    | None -> Ok ()
  in
  Objective.validate spec.Job.objective

(* A [Sys_error]'s reason without the leading ["FILE: "] it often
   carries. *)
let sys_reason file reason =
  let prefix = file ^ ": " in
  if String.starts_with ~prefix reason then
    String.sub reason (String.length prefix)
      (String.length reason - String.length prefix)
  else reason

(* Fixed positions as the V-cycle's hierarchy wants them: whatever the
   placement pins. *)
let fixed_positions_of circuit (p : Netlist.Placement.t) =
  Array.to_list circuit.Netlist.Circuit.cells
  |> List.filter_map (fun (cl : Netlist.Cell.t) ->
         if cl.Netlist.Cell.fixed then
           Some
             ( cl.Netlist.Cell.id,
               ( p.Netlist.Placement.x.(cl.Netlist.Cell.id),
                 p.Netlist.Placement.y.(cl.Netlist.Cell.id) ) )
         else None)

(* Where a job's placer state comes from. *)
type origin = Initial of Netlist.Placement.t | Restore of Checkpoint.t

(* Materialise a spec into live placer state.  Bad sources and
   checkpoints are typed [Error]s; the caller turns them into a [Failed]
   status (or, via [validate_spec], refuses them at submit time). *)
let start_running (spec : Job.spec) =
  let* circuit, p0 = Source.load spec.Job.source in
  let config = Job.config_of_spec spec in
  (* A resume restores the whole placer state from its checkpoint; a
     warm start (the ECO shape) takes only the checkpointed placement,
     with fresh forces, as the circuit may differ from the checkpointed
     one. *)
  let* origin =
    match spec.Job.start with
    | Job.Fresh -> Ok (Initial p0)
    | Job.Resume file ->
      let* cp = Checkpoint.load file in
      Ok (Restore cp)
    | Job.Warm file ->
      let* cp = Checkpoint.load file in
      let* p =
        Checkpoint.placement cp ~num_cells:(Netlist.Circuit.num_cells circuit)
      in
      Ok (Initial p)
  in
  let crit =
    if Job.timing spec then
      Some
        (match origin with
        | Restore { Checkpoint.criticality = Some a; _ } ->
          Timing.Criticality.of_array a
        | _ -> Timing.Criticality.create (Netlist.Circuit.num_nets circuit))
    else None
  in
  (* The one branch on the flow: the hierarchy the run places.  Fixed
     cells stay where the placement the run starts from pins them. *)
  let hierarchy (p : Netlist.Placement.t) =
    match Job.flow spec with
    | Job.Flat -> Kraftwerk.Cluster.unclustered circuit
    | Job.Multilevel ->
      Kraftwerk.Cluster.build_hierarchy config circuit
        ~fixed_positions:(fixed_positions_of circuit p)
  in
  let* vcycle =
    match origin with
    | Initial p -> Ok (Kraftwerk.Cluster.of_hierarchy config (hierarchy p) p)
    | Restore cp -> Checkpoint.restore cp config (hierarchy p0)
  in
  let hooks =
    match crit with
    | Some c ->
      (* Timing-driven jobs adapt net weights before every
         transformation (Timing.Driven.reweight, §5's optimisation
         mode); the criticality state lives in the running record so
         checkpoints carry it. *)
      {
        Kraftwerk.Placer.no_hooks with
        Kraftwerk.Placer.reweight =
          Some
            (fun s ->
              ignore (Timing.Driven.reweight Timing.Params.default c s));
      }
    | None -> Kraftwerk.Placer.no_hooks
  in
  let iters_emitted = ref 0 in
  let* sink, trace_oc =
    match spec.Job.trace with
    | None -> Ok (None, None)
    | Some file -> (
      match open_out file with
      | exception Sys_error reason ->
        Error
          (Printf.sprintf "trace: cannot open %s: %s" file
             (sys_reason file reason))
      | oc ->
        let base = Obs.Sink.jsonl oc in
        Ok
          ( Some
              {
                base with
                Obs.Sink.on_iteration =
                  (fun r ->
                    incr iters_emitted;
                    base.Obs.Sink.on_iteration r);
              },
            Some oc ))
  in
  Ok
    {
      circuit;
      vcycle;
      hooks;
      crit;
      sink;
      trace_oc;
      iters_emitted;
      started_at = Unix.gettimeofday ();
      since_checkpoint = 0;
      checkpoint_written = None;
    }

(* ------------------------------------------------------------------ *)
(* Finishing                                                            *)

let write_checkpoint t entry run file =
  let criticality = Option.map Timing.Criticality.to_array run.crit in
  Checkpoint.save file (Checkpoint.of_run ?criticality run.vcycle);
  run.since_checkpoint <- 0;
  run.checkpoint_written <- Some file;
  with_lock t (fun () ->
      if entry.status = Job.Running then entry.status <- Job.Checkpointed);
  emit t (Checkpointed (entry.id, file))

let close_trace run ~(result : Job.result) =
  (match (run.sink, run.trace_oc) with
  | Some sink, _ ->
    sink.Obs.Sink.on_summary
      {
        Obs.Telemetry.iterations = !(run.iters_emitted);
        converged = result.Job.converged;
        final_hpwl = result.Job.hpwl;
        final_overlap = result.Job.overlap;
        wall_time = result.Job.wall_s;
        stop_reason =
          Option.map Kraftwerk.Controller.reason_to_string
            result.Job.stop_reason;
        counters = Obs.Registry.snapshot ();
      }
  | None, _ -> ());
  match run.trace_oc with Some oc -> close_out oc | None -> ()

(* A terminal job keeps only its result: its placements leave with the
   [Finished] event, and its running state is dropped here. *)
let finish t entry ?final (result : Job.result) =
  (match entry.run with
  | Some run -> close_trace run ~result
  | None -> ());
  (* The event is queued under the lock that makes the job terminal, so
     a coordinator that sees no job left (the last [step] of [drain])
     also finds the event to pump. *)
  let alone =
    with_lock t (fun () ->
        if not (Job.terminal entry.status) then t.running <- t.running - 1;
        entry.status <- result.Job.status;
        entry.res <- Some result;
        entry.run <- None;
        enqueue_event t (Finished (entry.id, result.Job.status, final));
        t.running = 0)
  in
  poke t;
  (* The job's circuit, placer state and V-cycle hierarchy are garbage
     now.  Left to the major GC's pace they are still uncollected when
     the next job allocates its own, and the two together set the
     server's peak RSS.  With no other job running the live set is at
     its smallest: collect.  Otherwise the live set is the other jobs'
     and a full collection stops their domains too (with two worker
     domains busy one took a median 11.6 ms, against 0.83 ms on one
     domain), so the GC keeps its own pace. *)
  if alone then Gc.full_major ()

let empty_result status =
  {
    Job.status;
    iterations = 0;
    converged = false;
    stop_reason = None;
    hpwl = 0.;
    overlap = 0.;
    legal = false;
    improve_moves = 0;
    improve_delta = 0.;
    domino_moves = 0;
    domino_delta = 0.;
    routed_overflow = None;
    routed_max_overflow = None;
    routed_wirelength = None;
    deadline_expired = false;
    wall_s = 0.;
    checkpoint_written = None;
  }

let finish_failed t entry msg =
  let wall =
    match entry.run with
    | Some run -> Unix.gettimeofday () -. run.started_at
    | None -> 0.
  in
  finish t entry { (empty_result (Job.Failed msg)) with Job.wall_s = wall }

(* Completed job: the final placer, with the improvement deltas of
   each pass surfaced in the result; routability-goal jobs validate the
   final legal placement with the global router ([Job.completed]).  A
   job ended by its [max_steps] cap records [Max_steps] after its
   checkpoint: the cap ends this job, not the run a resume continues.
   The job converged when a stop rule, not a budget, ended it. *)
let finish_done t entry run ~capped =
  (match entry.spec.Job.checkpoint with
  | Some file -> write_checkpoint t entry run file
  | None -> ());
  let c = run.circuit in
  let global = Kraftwerk.Cluster.finish run.vcycle in
  let controller =
    (Kraftwerk.Cluster.current_state run.vcycle).Kraftwerk.Placer.controller
  in
  if capped then
    Kraftwerk.Controller.record_stop controller Kraftwerk.Controller.Max_steps;
  let stop_reason = controller.Kraftwerk.Controller.stop_reason in
  let converged =
    match stop_reason with
    | Some (Kraftwerk.Controller.Gap | Kraftwerk.Controller.Density) -> true
    | Some Kraftwerk.Controller.Max_steps | None -> false
  in
  let fin = Legalize.Finish.run c global in
  let r = Job.completed entry.spec.Job.objective c fin in
  finish t entry ~final:{ global; legal = fin.Legalize.Finish.placement }
    {
      r with
      Job.iterations = Kraftwerk.Cluster.steps run.vcycle;
      converged;
      stop_reason;
      wall_s = Unix.gettimeofday () -. run.started_at;
      checkpoint_written = run.checkpoint_written;
    }

(* Cancelled or deadline-expired job: degrade gracefully — write a final
   checkpoint when configured, then legalise the best-so-far placement.
   The greedy Tetris pass is tried first (cheapest); mid-run snapshots
   are clustered enough that its frontier packing can overflow, in which
   case the Abacus legaliser (which packs rows from their weighted
   optima) takes over.  Either way this path reports faithfully and
   never raises. *)
let finish_degraded t entry run ~deadline_expired =
  (match entry.spec.Job.checkpoint with
  | Some file -> write_checkpoint t entry run file
  | None -> ());
  let c = run.circuit in
  let global = Kraftwerk.Cluster.finish run.vcycle in
  (* Both legalisers work on a copy: [global] stays the global
     placement. *)
  let lp, legal =
    match Legalize.Tetris.legalize c global () with
    | Ok rep
      when rep.Legalize.Tetris.overflowed = 0
           && Legalize.Check.is_legal c rep.Legalize.Tetris.placement ->
      (rep.Legalize.Tetris.placement, true)
    | Ok _ | Error _ ->
      let rep = Legalize.Abacus.legalize c global () in
      (rep.Legalize.Abacus.placement,
       Legalize.Check.is_legal c rep.Legalize.Abacus.placement)
  in
  finish t entry ~final:{ global; legal = lp }
    {
      Job.status = Job.Cancelled;
      iterations = Kraftwerk.Cluster.steps run.vcycle;
      converged = false;
      stop_reason =
        Kraftwerk.Placer.stop_reason
          (Kraftwerk.Cluster.current_state run.vcycle);
      hpwl = Metrics.Wirelength.hpwl c lp;
      overlap = Metrics.Overlap.overlap_ratio c lp;
      legal;
      improve_moves = 0;
      improve_delta = 0.;
      domino_moves = 0;
      domino_delta = 0.;
      routed_overflow = None;
      routed_max_overflow = None;
      routed_wirelength = None;
      deadline_expired;
      wall_s = Unix.gettimeofday () -. run.started_at;
      checkpoint_written = run.checkpoint_written;
    }

(* ------------------------------------------------------------------ *)
(* The scheduler loop                                                   *)

(* One scheduling quantum for a running job: cancellation, deadline and
   budget checks, then a single placement transformation (or the
   finishing pass). *)
let slice_body t entry run =
  let deadline_expired =
    match entry.spec.Job.deadline with
    | Some d -> Unix.gettimeofday () -. run.started_at >= d
    | None -> false
  in
  let cancelled = with_lock t (fun () -> entry.cancel_requested) in
  let capped =
    match entry.spec.Job.max_steps with
    | Some n -> Kraftwerk.Cluster.steps run.vcycle >= n
    | None -> false
  in
  if cancelled || deadline_expired then
    finish_degraded t entry run ~deadline_expired
  else if capped || Kraftwerk.Cluster.finished run.vcycle then
    finish_done t entry run ~capped
  else begin
    let step () = ignore (Kraftwerk.Cluster.step ~hooks:run.hooks run.vcycle) in
    (match run.sink with
    | Some sink -> Obs.Sink.with_sink sink step
    | None -> step ());
    run.since_checkpoint <- run.since_checkpoint + 1;
    match entry.spec.Job.checkpoint with
    | Some file when run.since_checkpoint >= entry.spec.Job.checkpoint_every ->
      write_checkpoint t entry run file
    | _ -> ()
  end

type work = Slice of entry | Claim of entry | Nothing

(* Pick work, [t.lock] held: claim the first waiting job (priority,
   then submission order) while a concurrency slot is free, else pop
   the run queue.  A claim queues the job's [Started] event under the
   lock, so it precedes every event of work picked after it. *)
let take_work t =
  match t.waiting with
  | e :: rest when t.running < t.concurrency ->
    t.waiting <- rest;
    t.running <- t.running + 1;
    e.status <- Job.Running;
    enqueue_event t (Started e.id);
    Claim e
  | _ -> (
    match Queue.take_opt t.runq with Some e -> Slice e | None -> Nothing)

(* Materialise a claimed job and queue it for its first slice. *)
let start_job t entry =
  match start_running entry.spec with
  | Ok run ->
    with_lock t (fun () ->
        entry.run <- Some run;
        Queue.add entry t.runq;
        Condition.broadcast t.cond)
  | Error msg -> finish_failed t entry msg
  | exception Sys_error reason -> finish_failed t entry ("start: " ^ reason)
  | exception exn -> finish_failed t entry (Printexc.to_string exn)

(* Run one slice outside the lock, then account for it and re-queue the
   job at the tail if it is still live: the round-robin. *)
let exec_slice t shard entry =
  let t0 = Unix.gettimeofday () in
  (match entry.run with
  | None -> finish_failed t entry "scheduler: running job lost its state"
  | Some run -> (
    try slice_body t entry run
    with exn -> finish_failed t entry (Printexc.to_string exn)));
  let dt = Unix.gettimeofday () -. t0 in
  Obs.Registry.observe "sched/slice_s" dt;
  with_lock t (fun () ->
      let s = t.stats.(shard) in
      s.slices <- s.slices + 1;
      s.busy_s <- s.busy_s +. dt;
      if dt > s.max_slice_s then s.max_slice_s <- dt;
      if not (Job.terminal entry.status) then Queue.add entry t.runq;
      (* Wake a waiting [step] even when the job finished: the finish
         already queued its event. *)
      Condition.broadcast t.cond)

(* The loop body, entered and left with [t.lock] held: claim and start
   every job a free slot allows, then run one slice.  False when no
   slice was left to run. *)
let rec work t shard =
  match take_work t with
  | Nothing -> false
  | Claim entry ->
    Mutex.unlock t.lock;
    poke t;
    start_job t entry;
    Mutex.lock t.lock;
    work t shard
  | Slice entry ->
    Mutex.unlock t.lock;
    exec_slice t shard entry;
    Mutex.lock t.lock;
    true

(* [work] releases the lock around a claimed job's start, and a worker
   can stay blocked on the lock for the whole of another worker's run,
   so [stop] may have cleared [live] since the loop test: re-check it
   before sleeping, or the worker sleeps through the last broadcast and
   [stop]'s [Domain.join] waits forever. *)
let worker t shard () =
  Mutex.lock t.lock;
  while t.live do
    if (not (t.opened && work t shard)) && t.live then
      Condition.wait t.cond t.lock
  done;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Construction, stepping, cancellation                                 *)

let max_workers = 64

let create ?(concurrency = 1) ?(domains = 1) ?(on_event = fun _ -> ()) () =
  if concurrency < 1 then invalid_arg "Scheduler.create: concurrency < 1";
  if domains < 1 || domains > max_workers then
    invalid_arg "Scheduler.create: domains outside 1..max_workers";
  (* More than one domain asks for worker domains, one per domain up to
     the concurrency (a worker without a runnable job would idle);
     otherwise the caller's domain runs the loop. *)
  let workers = if domains > 1 then min concurrency domains else 0 in
  let notify =
    if workers = 0 then None
    else begin
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      Some (r, w)
    end
  in
  let t =
    {
      concurrency;
      workers;
      on_event;
      next_id = 0;
      entries = Hashtbl.create 16;
      waiting = [];
      running = 0;
      lock = Mutex.create ();
      cond = Condition.create ();
      runq = Queue.create ();
      pending = Queue.create ();
      stats =
        Array.init (max 1 workers) (fun _ ->
            { slices = 0; busy_s = 0.; max_slice_s = 0. });
      created_at = Unix.gettimeofday ();
      live = true;
      opened = false;
      worker_domains = [||];
      notify;
    }
  in
  t.worker_domains <- Array.init workers (fun i -> Domain.spawn (worker t i));
  t

let stop t =
  with_lock t (fun () ->
      t.live <- false;
      Condition.broadcast t.cond);
  Array.iter Domain.join t.worker_domains;
  t.worker_domains <- [||];
  pump t;
  match t.notify with
  | None -> ()
  | Some (r, w) ->
    t.notify <- None;
    (try Unix.close r with Unix.Unix_error _ -> ());
    (try Unix.close w with Unix.Unix_error _ -> ())

(* With zero workers the coordinator runs the loop itself; otherwise it
   waits until a worker makes progress or an event needs delivering. *)
let step t =
  pump t;
  Mutex.lock t.lock;
  let progressed =
    t.live
    &&
    if t.workers = 0 then work t 0
    else begin
      let busy = busy_locked t in
      if busy && Queue.is_empty t.pending then Condition.wait t.cond t.lock;
      busy
    end
  in
  Mutex.unlock t.lock;
  pump t;
  progressed

let drain t =
  while step t do
    ()
  done

let cancel t id =
  let cancelled =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.entries id with
        | None -> false
        | Some e when Job.terminal e.status -> false
        | Some e when e.status = Job.Queued ->
          (* Never started: no placement to report.  Settle the whole
             terminal state atomically so a concurrent worker can
             neither claim it nor observe a half-finished entry. *)
          t.waiting <- List.filter (fun w -> w != e) t.waiting;
          e.status <- Job.Cancelled;
          e.res <- Some (empty_result Job.Cancelled);
          enqueue_event t (Finished (id, Job.Cancelled, None));
          true
        | Some e ->
          e.cancel_requested <- true;
          true)
  in
  pump t;
  cancelled

let cancel_all t =
  let n = with_lock t (fun () -> t.next_id) in
  let cancelled = ref 0 in
  for id = 1 to n do
    if cancel t id then incr cancelled
  done;
  !cancelled

let run_job spec =
  let final = ref None in
  let on_event = function Finished (_, _, f) -> final := f | _ -> () in
  let t = create ~on_event () in
  let id = submit t spec in
  drain t;
  stop t;
  (Option.get (result t id), !final)
