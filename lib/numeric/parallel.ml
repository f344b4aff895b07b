(* Reusable domain pool for data-parallel numeric kernels.

   The pool is lazily initialised on first use.  Its size comes from, in
   priority order: `set_num_domains`, the KRAFTWERK_DOMAINS environment
   variable, then `Domain.recommended_domain_count`.  Size 1 means "no
   pool": every combinator degrades to plain sequential execution on the
   calling domain, which keeps results bitwise-identical to the
   historical single-core code paths.

   Determinism: the combinators only hand *disjoint* index ranges to
   tasks, and every in-tree task body writes disjoint locations, so
   results are bitwise-identical for any domain count.  Reductions that
   would reassociate floating-point sums are deliberately not offered;
   order-sensitive accumulation stays on the caller (see
   Density_map.demand for the two-pass pattern).

   Scheduling: tasks go through one shared queue.  A caller submitting a
   batch helps drain the queue until its own batch completes, so nested
   parallelism (a parallel SpMV inside a task of a sharded worker's
   batch) cannot deadlock — a blocked submitter always runs queued work
   before sleeping. *)

type pool = {
  size : int; (* total lanes, including the submitting domain *)
  lock : Mutex.t;
  cond : Condition.t; (* signalled on enqueue and batch completion *)
  tasks : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t array;
}

let override : int option Atomic.t = Atomic.make None

let pool : pool option Atomic.t = Atomic.make None

let pool_guard = Mutex.create ()

(* Per-domain lane budget.  A sharded scheduler worker pins its lanes
   here instead of resizing the process-wide pool (which would tear it
   down under other domains' feet); combinators on that domain then
   chunk — and gate sequential fallback — against the pinned value.
   Other domains, including pool workers running nested tasks, are
   unaffected. *)
let lane_override : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* The OCaml runtime supports at most ~128 domains; clamp rather than
   crash on absurd KRAFTWERK_DOMAINS values. *)
let max_domains = 128

let clamp_domains n = if n < 1 then 1 else if n > max_domains then max_domains else n

let env_domains () =
  match Sys.getenv_opt "KRAFTWERK_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let target_size () =
  clamp_domains
    (match Atomic.get override with
    | Some n -> n
    | None -> (
      match env_domains () with
      | Some n -> n
      | None -> Domain.recommended_domain_count ()))

let num_domains () =
  match Domain.DLS.get lane_override with
  | Some n -> n
  | None -> (
    match Atomic.get pool with Some p -> p.size | None -> target_size ())

let with_lanes n f =
  if n < 1 then invalid_arg "Parallel.with_lanes: need at least one lane";
  let n = clamp_domains n in
  let saved = Domain.DLS.get lane_override in
  Domain.DLS.set lane_override (Some n);
  Fun.protect ~finally:(fun () -> Domain.DLS.set lane_override saved) f

let worker p () =
  Mutex.lock p.lock;
  let rec loop () =
    if p.live then
      match Queue.take_opt p.tasks with
      | Some t ->
        Mutex.unlock p.lock;
        t ();
        Mutex.lock p.lock;
        loop ()
      | None ->
        Condition.wait p.cond p.lock;
        loop ()
  in
  loop ();
  Mutex.unlock p.lock

let get_pool () =
  match Atomic.get pool with
  | Some p -> p
  | None ->
    Mutex.lock pool_guard;
    let p =
      match Atomic.get pool with
      | Some p -> p
      | None ->
        let size = target_size () in
        let p =
          {
            size;
            lock = Mutex.create ();
            cond = Condition.create ();
            tasks = Queue.create ();
            live = true;
            workers = [||];
          }
        in
        p.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker p));
        Atomic.set pool (Some p);
        p
    in
    Mutex.unlock pool_guard;
    p

let shutdown () =
  Mutex.lock pool_guard;
  (match Atomic.get pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.lock;
    p.live <- false;
    Condition.broadcast p.cond;
    Mutex.unlock p.lock;
    Array.iter Domain.join p.workers;
    Atomic.set pool None);
  Mutex.unlock pool_guard

(* Must not be called while parallel work is in flight (the placer sets
   it once at init; tests switch between cases). *)
let set_num_domains n =
  if n < 1 then invalid_arg "Parallel.set_num_domains: need at least one domain";
  let n = clamp_domains n in
  Atomic.set override (Some n);
  match Atomic.get pool with
  | Some p when p.size = n -> ()
  | Some _ -> shutdown ()
  | None -> ()

(* Drop any programmatic override and tear the pool down, so the next
   use re-reads KRAFTWERK_DOMAINS (or the hardware default). *)
let reset () =
  Atomic.set override None;
  shutdown ()

(* Run every closure in [fns], using pool workers plus the calling
   domain, and return once all have finished.  The first task exception
   (if any) is re-raised on the caller. *)
let run_tasks p fns =
  let n = Array.length fns in
  if n > 0 then begin
    (* One observation per batch: count = batches, total = tasks.  The
       telemetry layer reads the total's delta per placer iteration as a
       pool-utilisation signal. *)
    Obs.Registry.observe "pool/tasks" (float_of_int n);
    let remaining = Atomic.make n in
    let first_exn = Atomic.make None in
    let wrap f () =
      (try f ()
       with e -> ignore (Atomic.compare_and_set first_exn None (Some e)));
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock p.lock;
        Condition.broadcast p.cond;
        Mutex.unlock p.lock
      end
    in
    Mutex.lock p.lock;
    Array.iter (fun f -> Queue.add (wrap f) p.tasks) fns;
    Condition.broadcast p.cond;
    (* Help: run queued tasks (ours or a nested batch's) until this batch
       completes; sleep only when the queue is empty. *)
    let rec drain () =
      if Atomic.get remaining > 0 then
        match Queue.take_opt p.tasks with
        | Some t ->
          Mutex.unlock p.lock;
          t ();
          Mutex.lock p.lock;
          drain ()
        | None ->
          if Atomic.get remaining > 0 then begin
            Condition.wait p.cond p.lock;
            drain ()
          end
    in
    drain ();
    Mutex.unlock p.lock;
    match Atomic.get first_exn with Some e -> raise e | None -> ()
  end

(* Below this many scalar operations a batch's fixed cost (queue mutex,
   condvar wakeups) outweighs any split: callers that can estimate their
   work pass [?work] and small calls stay on the calling domain.  The
   sequential fallback runs the very same body over the whole range, so
   results are bitwise-identical either way. *)
let seq_work_cutoff = 32_768

(* Apply [body a b] over disjoint sub-ranges covering [lo, hi).  The
   chunk grid depends only on the range and chunk size, never on which
   domain runs what. *)
let parallel_range ?chunk ?work ~lo ~hi body =
  let n = hi - lo in
  if n > 0 then begin
    let d = num_domains () in
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ | None -> max 1 ((n + (4 * d) - 1) / (4 * d))
    in
    let n_chunks = (n + chunk - 1) / chunk in
    let small =
      match work with Some w -> w < seq_work_cutoff | None -> false
    in
    if d <= 1 || n_chunks <= 1 || small then body lo hi
    else
      run_tasks (get_pool ())
        (Array.init n_chunks (fun k ->
             let a = lo + (k * chunk) in
             let b = min hi (a + chunk) in
             fun () -> body a b))
  end
