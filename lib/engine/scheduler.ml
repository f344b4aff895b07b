type id = int

type event =
  | Submitted of id
  | Started of id
  | Checkpointed of id * string
  | Finished of id * Job.status

(* What a job executes: the flat flow is a bare placer state, the
   multilevel flow a whole V-cycle (which owns a per-level placer state
   internally). *)
type exec =
  | Flat of Kraftwerk.Placer.state
  | Multi of Kraftwerk.Cluster.run

(* Live state of a started job, dropped once the job is terminal.  Only
   the domain currently executing the job's slice touches it. *)
type running = {
  circuit : Netlist.Circuit.t;
  exec : exec;
  hooks : Kraftwerk.Placer.hooks;
  crit : Timing.Criticality.t option;  (* timing-driven jobs *)
  sink : Obs.Sink.t option;  (* private per-job telemetry sink *)
  trace_oc : out_channel option;
  iters_emitted : int ref;
  started_at : float;
  max_steps : int;  (* cap on the total placer iteration counter *)
  mutable steps_taken : int;
      (* transformations executed by this engine run; the iteration
         count of multilevel jobs, whose per-level states reset *)
  mutable since_checkpoint : int;
  mutable checkpoint_written : string option;
}

(* The placer state currently being transformed (the current stage's
   for a V-cycle). *)
let exec_state = function
  | Flat s -> s
  | Multi r -> Kraftwerk.Cluster.current_state r

(* Iterations to report: the flat flow's placer counter survives
   checkpoint/resume by itself; a V-cycle's per-level counters reset at
   every descent, so the engine's own step count is the honest total. *)
let exec_iterations run =
  match run.exec with
  | Flat s -> s.Kraftwerk.Placer.iteration
  | Multi _ -> run.steps_taken

(* Final flat placement of a (possibly mid-flight) exec: a V-cycle
   still sitting on a coarse level expands straight down first. *)
let exec_final_placement circuit = function
  | Flat s -> s.Kraftwerk.Placer.placement
  | Multi r ->
    let p = Kraftwerk.Cluster.finish r in
    Netlist.Placement.clamp_to_region circuit p;
    p

type entry = {
  id : id;
  spec : Job.spec;
  mutable status : Job.status;
  mutable run : running option;
  mutable res : Job.result option;
  mutable final_global : Netlist.Placement.t option;
  mutable final_legal : Netlist.Placement.t option;
  mutable cancel_requested : bool;
}

type shard_stats = {
  mutable steals : int;
  mutable slices : int;
  mutable busy_s : float;
  mutable max_slice_s : float;
}

type shard_metric = {
  shard : int;
  queue_depth : int;
  m_steals : int;
  m_slices : int;
  m_busy_s : float;
  m_busy_frac : float;
  m_max_slice_s : float;
}

type t = {
  concurrency : int;
  workers : int;  (* worker domains; 0 = the coordinator runs the loop *)
  on_event : event -> unit;  (* invoked only on the coordinator domain *)
  mutable next_id : int;
  entries : (id, entry) Hashtbl.t;
  mutable order : id list;  (* submission order *)
  (* [lock] guards every mutable field above plus the queues, pending
     events and stats; slices and finishing passes run outside it.
     [cond] is broadcast whenever work or an event becomes available
     (and on stop). *)
  lock : Mutex.t;
  cond : Condition.t;
  queues : id Queue.t array;  (* one run queue per worker, or just one *)
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

let submit t spec =
  let id =
    with_lock t (fun () ->
        t.next_id <- t.next_id + 1;
        let id = t.next_id in
        Hashtbl.replace t.entries id
          {
            id;
            spec;
            status = Job.Queued;
            run = None;
            res = None;
            final_global = None;
            final_legal = None;
            cancel_requested = false;
          };
        t.order <- t.order @ [ id ];
        Condition.broadcast t.cond;
        id)
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

let placement t id =
  with_lock t (fun () ->
      Option.bind (Hashtbl.find_opt t.entries id) (fun e -> e.final_global))

let legalized t id =
  with_lock t (fun () ->
      Option.bind (Hashtbl.find_opt t.entries id) (fun e -> e.final_legal))

let jobs t =
  with_lock t (fun () ->
      List.map (fun id -> (id, (Hashtbl.find t.entries id).status)) t.order)

let busy_locked t =
  List.exists
    (fun id -> not (Job.terminal (Hashtbl.find t.entries id).status))
    t.order

let busy t = with_lock t (fun () -> busy_locked t)

let count_status_locked t p =
  List.fold_left
    (fun acc id -> if p (Hashtbl.find t.entries id).status then acc + 1 else acc)
    0 t.order

let queued t = with_lock t (fun () -> count_status_locked t (( = ) Job.Queued))

let running_locked t =
  count_status_locked t (fun s -> s = Job.Running || s = Job.Checkpointed)

let running t = with_lock t (fun () -> running_locked t)

let shard_metrics t =
  with_lock t (fun () ->
      let uptime = max 1e-9 (Unix.gettimeofday () -. t.created_at) in
      List.init t.workers (fun i ->
          let s = t.stats.(i) in
          {
            shard = i;
            queue_depth = Queue.length t.queues.(i);
            m_steals = s.steals;
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
  Objective.validate spec.Job.objective

(* Fixed positions as the multilevel flow wants them: whatever the
   initial placement pins (exactly what [place run --flow multilevel]
   passes, so engine and CLI trajectories agree). *)
let fixed_positions_of circuit (p : Netlist.Placement.t) =
  Array.to_list circuit.Netlist.Circuit.cells
  |> List.filter_map (fun (cl : Netlist.Cell.t) ->
         if cl.Netlist.Cell.fixed then
           Some
             ( cl.Netlist.Cell.id,
               ( p.Netlist.Placement.x.(cl.Netlist.Cell.id),
                 p.Netlist.Placement.y.(cl.Netlist.Cell.id) ) )
         else None)

(* Materialise a spec into live placer state.  Bad sources and
   checkpoints are typed [Error]s; the caller turns them into a [Failed]
   status (or, via [validate_spec], refuses them at submit time). *)
let start_running (spec : Job.spec) =
  let* circuit, p0 = Source.load spec.Job.source in
  let config = Job.config_of_spec spec in
  let crit_fresh () =
    if Job.timing spec then
      Some (Timing.Criticality.create (Netlist.Circuit.num_nets circuit))
    else None
  in
  let* exec, crit, steps0 =
    match (Job.flow spec, spec.Job.start) with
    | Job.Flat, Job.Fresh ->
      Ok (Flat (Kraftwerk.Placer.init config circuit p0), crit_fresh (), 0)
    | Job.Flat, Job.Resume file ->
      let* cp = Checkpoint.load file in
      let* state = Checkpoint.restore cp config circuit in
      let crit =
        if Job.timing spec then
          Some
            (match cp.Checkpoint.criticality with
            | Some a -> Timing.Criticality.of_array a
            | None ->
              Timing.Criticality.create (Netlist.Circuit.num_nets circuit))
        else None
      in
      Ok (Flat state, crit, 0)
    | Job.Flat, Job.Warm file ->
      (* ECO shape: only the checkpointed placement, fresh forces — the
         circuit may differ from the checkpointed one. *)
      let* cp = Checkpoint.load file in
      let* p =
        Checkpoint.placement cp ~num_cells:(Netlist.Circuit.num_cells circuit)
      in
      Ok (Flat (Kraftwerk.Placer.init config circuit p), crit_fresh (), 0)
    | Job.Multilevel, Job.Fresh ->
      let fixed = fixed_positions_of circuit p0 in
      Ok
        ( Multi (Kraftwerk.Cluster.start config circuit ~fixed_positions:fixed p0),
          crit_fresh (),
          0 )
    | Job.Multilevel, Job.Resume file ->
      let* cp = Checkpoint.load file in
      let fixed = fixed_positions_of circuit p0 in
      let* run =
        Checkpoint.restore_multilevel cp config circuit ~fixed_positions:fixed
      in
      let crit =
        if Job.timing spec then
          Some
            (match cp.Checkpoint.criticality with
            | Some a -> Timing.Criticality.of_array a
            | None ->
              Timing.Criticality.create (Netlist.Circuit.num_nets circuit))
        else None
      in
      Ok (Multi run, crit, cp.Checkpoint.iteration)
    | Job.Multilevel, Job.Warm file ->
      let* cp = Checkpoint.load file in
      let* p =
        Checkpoint.placement cp ~num_cells:(Netlist.Circuit.num_cells circuit)
      in
      let fixed = fixed_positions_of circuit p in
      Ok
        ( Multi (Kraftwerk.Cluster.start config circuit ~fixed_positions:fixed p),
          crit_fresh (),
          0 )
  in
  let hooks =
    match crit with
    | Some c ->
      (* Timing-driven jobs adapt net weights before every
         transformation, as in Timing.Driven.optimize; the criticality
         state lives in the running record so checkpoints carry it. *)
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
  let sink, trace_oc =
    match spec.Job.trace with
    | None -> (None, None)
    | Some file ->
      let oc = open_out file in
      let base = Obs.Sink.jsonl oc in
      ( Some
          {
            base with
            Obs.Sink.on_iteration =
              (fun r ->
                incr iters_emitted;
                base.Obs.Sink.on_iteration r);
          },
        Some oc )
  in
  Ok
    {
      circuit;
      exec;
      hooks;
      crit;
      sink;
      trace_oc;
      iters_emitted;
      started_at = Unix.gettimeofday ();
      max_steps =
        (match spec.Job.max_steps with
        | Some n -> n
        | None -> (
          (* A V-cycle budgets per level ([max_iterations] at the
             coarsest stage, [ml_refine_iters] below); an engine-wide
             cap only applies when the spec asks for one. *)
          match exec with
          | Flat _ -> config.Kraftwerk.Config.max_iterations
          | Multi _ -> max_int));
      steps_taken = steps0;
      since_checkpoint = 0;
      checkpoint_written = None;
    }

(* ------------------------------------------------------------------ *)
(* Finishing                                                            *)

let write_checkpoint t entry run file =
  let criticality = Option.map Timing.Criticality.to_array run.crit in
  let cp =
    match run.exec with
    | Flat s -> Checkpoint.of_state ?criticality s
    | Multi r -> Checkpoint.of_run ?criticality r
  in
  Checkpoint.save file cp;
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
            (Kraftwerk.Placer.stop_reason (exec_state run.exec));
        counters = Obs.Registry.snapshot ();
      }
  | None, _ -> ());
  match run.trace_oc with Some oc -> close_out oc | None -> ()

let finish t entry (result : Job.result) =
  (match entry.run with
  | Some run -> close_trace run ~result
  | None -> ());
  with_lock t (fun () ->
      entry.status <- result.Job.status;
      entry.res <- Some result;
      entry.run <- None;
      Condition.broadcast t.cond);
  emit t (Finished (entry.id, result.Job.status))

let empty_result status =
  {
    Job.status;
    iterations = 0;
    converged = false;
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

(* Completed job: the full final-placement pipeline, with the
   improvement deltas of each pass surfaced in the result. *)
let finish_done t entry run ~converged =
  (match entry.spec.Job.checkpoint with
  | Some file -> write_checkpoint t entry run file
  | None -> ());
  let c = run.circuit in
  let global = exec_final_placement c run.exec in
  with_lock t (fun () ->
      entry.final_global <- Some (Netlist.Placement.copy global));
  let rep = Legalize.Abacus.legalize c global () in
  let lp = rep.Legalize.Abacus.placement in
  let improve_moves, improve_delta = Legalize.Improve.run c lp in
  let domino_moves, domino_delta = Legalize.Domino.run c lp in
  with_lock t (fun () -> entry.final_legal <- Some lp);
  (* Routability-goal jobs validate the final legal placement with the
     actual global router, on the same grid spec the in-loop estimator
     used, and surface the routed overflow in the result. *)
  let routed_overflow, routed_max_overflow, routed_wirelength =
    if Objective.routed_validation entry.spec.Job.objective then
      let config = Job.config_of_spec entry.spec in
      let gspec = Kraftwerk.Placer.route_spec config c in
      match Route.Grouter.route c lp gspec with
      | Ok r ->
        ( Some r.Route.Grouter.total_overflow,
          Some r.Route.Grouter.max_overflow,
          Some r.Route.Grouter.total_wirelength )
      | Error _ -> (None, None, None)
    else (None, None, None)
  in
  finish t entry
    {
      Job.status = Job.Done;
      iterations = exec_iterations run;
      converged;
      hpwl = Metrics.Wirelength.hpwl c lp;
      overlap = Metrics.Overlap.overlap_ratio c lp;
      legal = Legalize.Check.is_legal c lp;
      improve_moves;
      improve_delta;
      domino_moves;
      domino_delta;
      routed_overflow;
      routed_max_overflow;
      routed_wirelength;
      deadline_expired = false;
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
  let global = exec_final_placement c run.exec in
  with_lock t (fun () ->
      entry.final_global <- Some (Netlist.Placement.copy global));
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
  with_lock t (fun () -> entry.final_legal <- Some lp);
  finish t entry
    {
      Job.status = Job.Cancelled;
      iterations = exec_iterations run;
      converged = false;
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
  let over_budget =
    match run.exec with
    | Flat s -> s.Kraftwerk.Placer.iteration >= run.max_steps
    | Multi _ -> run.steps_taken >= run.max_steps
  in
  let done_now =
    match run.exec with
    | Flat s -> Kraftwerk.Placer.converged s
    | Multi r -> Kraftwerk.Cluster.finished r
  in
  if cancelled || deadline_expired then
    finish_degraded t entry run ~deadline_expired
  else if over_budget then begin
    Kraftwerk.Controller.record_stop
      (exec_state run.exec).Kraftwerk.Placer.controller
      Kraftwerk.Controller.Max_steps;
    finish_done t entry run ~converged:false
  end
  else if done_now then finish_done t entry run ~converged:true
  else begin
    let step () =
      match run.exec with
      | Flat s -> ignore (Kraftwerk.Placer.transform ~hooks:run.hooks s)
      | Multi r -> ignore (Kraftwerk.Cluster.step ~hooks:run.hooks r)
    in
    (match run.sink with
    | Some sink -> Obs.Sink.with_sink sink step
    | None -> step ());
    run.steps_taken <- run.steps_taken + 1;
    run.since_checkpoint <- run.since_checkpoint + 1;
    match entry.spec.Job.checkpoint with
    | Some file when run.since_checkpoint >= entry.spec.Job.checkpoint_every ->
      write_checkpoint t entry run file
    | _ -> ()
  end

(* Home queue: fixed by job id alone, so where a job's slices queue is a
   pure function of submission order, independent of timing.  Stealing
   borrows one slice at a time; the job re-queues at home afterwards.
   With zero workers there is one queue, and re-queueing at its tail is
   the round-robin. *)
let home t id = (id - 1) mod Array.length t.queues

type work = Slice of entry | Claim of entry | Nothing

(* Pick work for [shard], [t.lock] held: claim the best queued job while
   a concurrency slot is free (priority, then submission order), else
   pop the shard's own queue, else steal a slice scanning the other
   queues in a fixed order.  A claim queues the job's [Started] event
   under the lock, so it precedes every event of work picked after it.
   Terminal ids found in a queue (a job cancelled while queued never
   gets there, but be defensive) are dropped. *)
let take_work t shard =
  let claimable =
    if running_locked t >= t.concurrency then None
    else
      List.fold_left
        (fun best id ->
          let e = Hashtbl.find t.entries id in
          if e.status <> Job.Queued then best
          else
            match best with
            | Some b when b.spec.Job.priority >= e.spec.Job.priority -> best
            | _ -> Some e)
        None t.order
  in
  let rec pop q =
    match Queue.take_opt q with
    | None -> None
    | Some id ->
      let e = Hashtbl.find t.entries id in
      if Job.terminal e.status || e.run = None then pop q else Some e
  in
  let n = Array.length t.queues in
  let rec scan k =
    if k >= n then None
    else
      match pop t.queues.((shard + k) mod n) with
      | Some e -> Some e
      | None -> scan (k + 1)
  in
  match claimable with
  | Some e ->
    e.status <- Job.Running;
    enqueue_event t (Started e.id);
    Claim e
  | None -> (
    match pop t.queues.(shard) with
    | Some e -> Slice e
    | None -> (
      match scan 1 with
      | Some e ->
        let s = t.stats.(shard) in
        s.steals <- s.steals + 1;
        Slice e
      | None -> Nothing))

(* Materialise a claimed job and queue it at home. *)
let start_job t entry =
  match start_running entry.spec with
  | Ok run ->
    with_lock t (fun () ->
        entry.run <- Some run;
        Queue.add entry.id t.queues.(home t entry.id);
        Condition.broadcast t.cond)
  | Error msg -> finish_failed t entry msg
  | exception exn -> finish_failed t entry (Printexc.to_string exn)

(* Run one slice outside the lock, then account for it and re-queue the
   job at its home if it is still live. *)
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
      if not (Job.terminal entry.status) then
        Queue.add entry.id t.queues.(home t entry.id);
      (* Wake a waiting [step] even when the job finished: the finish
         already queued its event. *)
      Condition.broadcast t.cond)

(* The loop body, entered and left with [t.lock] held: claim and start
   every job a free slot allows, then run one slice.  False when no
   slice was left to run. *)
let rec work t shard =
  match take_work t shard with
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
      order = [];
      lock = Mutex.create ();
      cond = Condition.create ();
      queues = Array.init (max 1 workers) (fun _ -> Queue.create ());
      pending = Queue.create ();
      stats =
        Array.init (max 1 workers) (fun _ ->
            { steals = 0; slices = 0; busy_s = 0.; max_slice_s = 0. });
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
          e.status <- Job.Cancelled;
          e.res <- Some (empty_result Job.Cancelled);
          enqueue_event t (Finished (id, Job.Cancelled));
          true
        | Some e ->
          e.cancel_requested <- true;
          true)
  in
  pump t;
  cancelled

let cancel_all t =
  let ids = with_lock t (fun () -> t.order) in
  List.fold_left (fun acc id -> if cancel t id then acc + 1 else acc) 0 ids
