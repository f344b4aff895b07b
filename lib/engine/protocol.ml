type code =
  | Parse
  | Unknown_cmd
  | Bad_spec
  | Unknown_id
  | Not_terminal
  | Overloaded
  | Shutting_down

let code_to_string = function
  | Parse -> "parse"
  | Unknown_cmd -> "unknown_cmd"
  | Bad_spec -> "bad_spec"
  | Unknown_id -> "unknown_id"
  | Not_terminal -> "not_terminal"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"

let code_of_string = function
  | "parse" -> Some Parse
  | "unknown_cmd" -> Some Unknown_cmd
  | "bad_spec" -> Some Bad_spec
  | "unknown_id" -> Some Unknown_id
  | "not_terminal" -> Some Not_terminal
  | "overloaded" -> Some Overloaded
  | "shutting_down" -> Some Shutting_down
  | _ -> None

type error = { code : code; message : string; retry_after_ms : int option }

let err ?retry_after_ms code message = { code; message; retry_after_ms }

let error_message e = Printf.sprintf "%s: %s" (code_to_string e.code) e.message

type request =
  | Submit of Job.spec
  | Status of Scheduler.id
  | Result of Scheduler.id
  | Cancel of Scheduler.id
  | Jobs
  | Step of int
  | Drain
  | Wait of Scheduler.id
  | Metrics
  | Subscribe of { from_ev : int option }
  | Shutdown

open Obs.Json

let int_ v = Num (float_of_int v)

let ( let* ) = Stdlib.Result.bind

let seq_of_json v = member "seq" v

let field_id v =
  match member "id" v with
  | Some n -> (
    match to_int n with
    | Some i when i >= 1 -> Ok i
    | _ -> Error (err Bad_spec "field \"id\" is not a positive integer"))
  | None -> Error (err Bad_spec "missing field \"id\"")

let request_of_json v =
  match member "cmd" v with
  | Some (Str "submit") -> (
    match member "job" v with
    | Some job ->
      let* spec =
        Result.map_error (fun m -> err Bad_spec m) (Job.spec_of_json job)
      in
      Ok (Submit spec)
    | None -> Error (err Bad_spec "submit needs a \"job\" field"))
  | Some (Str "status") ->
    let* id = field_id v in
    Ok (Status id)
  | Some (Str "result") ->
    let* id = field_id v in
    Ok (Result id)
  | Some (Str "cancel") ->
    let* id = field_id v in
    Ok (Cancel id)
  | Some (Str "jobs") -> Ok Jobs
  | Some (Str "step") -> (
    match Option.map to_int (member "turns" v) with
    | Some (Some n) when n >= 1 -> Ok (Step n)
    | None -> Ok (Step 1)
    | Some _ ->
      Error (err Bad_spec "field \"turns\" is not a positive integer"))
  | Some (Str "drain") -> Ok Drain
  | Some (Str "wait") ->
    let* id = field_id v in
    Ok (Wait id)
  | Some (Str "metrics") -> Ok Metrics
  | Some (Str "subscribe") -> (
    match Option.map to_int (member "from_ev" v) with
    | Some (Some n) when n >= 0 -> Ok (Subscribe { from_ev = Some n })
    | None -> Ok (Subscribe { from_ev = None })
    | Some _ ->
      Error (err Bad_spec "field \"from_ev\" is not a non-negative integer"))
  | Some (Str "shutdown") -> Ok Shutdown
  | Some (Str other) ->
    Error (err Unknown_cmd (Printf.sprintf "unknown command %S" other))
  | Some _ -> Error (err Parse "field \"cmd\" is not a string")
  | None -> Error (err Parse "missing field \"cmd\"")

type reply = Reply of (string * Obs.Json.t) list | Refuse of error

let render ~seq reply =
  let seq_field = match seq with Some s -> [ ("seq", s) ] | None -> [] in
  match reply with
  | Reply fields -> Obj ((("ok", Bool true) :: seq_field) @ fields)
  | Refuse e ->
    let retry =
      match e.retry_after_ms with
      | Some ms -> [ ("retry_after_ms", int_ ms) ]
      | None -> []
    in
    Obj
      (("ok", Bool false) :: seq_field
      @ [
          ( "error",
            Obj
              (("code", Str (code_to_string e.code))
               :: ("message", Str e.message)
               :: retry) );
        ])

let event_to_json ~ev e =
  let fields =
    match e with
    | Scheduler.Submitted id -> [ ("event", Str "submitted"); ("id", int_ id) ]
    | Scheduler.Started id -> [ ("event", Str "started"); ("id", int_ id) ]
    | Scheduler.Checkpointed (id, file) ->
      [ ("event", Str "checkpointed"); ("id", int_ id); ("file", Str file) ]
    | Scheduler.Finished (id, status, _) ->
      [
        ("event", Str "finished");
        ("id", int_ id);
        ("status", Str (Job.status_to_string status));
      ]
  in
  Obj (fields @ [ ("ev", int_ ev) ])

(* Scheduler shape and per-worker counters: the slice and busy-fraction
   numbers that tell an operator whether the worker domains share the
   load. *)
let scheduler_json sched =
  let shard_rows =
    List.map
      (fun (m : Scheduler.shard_metric) ->
        Obj
          [
            ("shard", int_ m.Scheduler.shard);
            ("slices", int_ m.Scheduler.m_slices);
            ("busy_s", Num m.Scheduler.m_busy_s);
            ("busy_frac", Num m.Scheduler.m_busy_frac);
            ("max_slice_s", Num m.Scheduler.m_max_slice_s);
          ])
      (Scheduler.shard_metrics sched)
  in
  Obj
    [
      ("shards", int_ (Scheduler.workers sched));
      ("queued", int_ (Scheduler.queued sched));
      ("running", int_ (Scheduler.running sched));
      ("per_shard", Arr shard_rows);
    ]

let metrics_fields sched =
  [
    ("enabled", Bool (Obs.Registry.enabled ()));
    ("scheduler", scheduler_json sched);
    ( "metrics",
      Obj
        (List.map
           (fun (name, stat) -> (name, Obs.Telemetry.stat_to_json stat))
           (Obs.Registry.snapshot ())) );
  ]

let with_job sched id f =
  match Scheduler.status sched id with
  | None -> Refuse (err Unknown_id (Printf.sprintf "unknown job id %d" id))
  | Some status -> f status

let handle sched req =
  match req with
  | Submit spec -> (
    match Scheduler.validate_spec spec with
    | Error msg -> (Refuse (err Bad_spec msg), false)
    | Ok () ->
      let id = Scheduler.submit sched spec in
      (Reply [ ("id", int_ id); ("status", Str "queued") ], false))
  | Status id ->
    ( with_job sched id (fun status ->
          Reply [ ("id", int_ id); ("status", Str (Job.status_to_string status)) ]),
      false )
  | Result id ->
    ( with_job sched id (fun status ->
          if not (Job.terminal status) then
            Refuse
              (err Not_terminal
                 (Printf.sprintf "job %d is still %s" id
                    (Job.status_to_string status)))
          else
            match Scheduler.result sched id with
            | Some r -> Reply [ ("id", int_ id); ("result", Job.result_to_json r) ]
            | None ->
              Refuse
                (err Not_terminal (Printf.sprintf "job %d has no result" id))),
      false )
  | Cancel id ->
    ( with_job sched id (fun _ ->
          let cancelled = Scheduler.cancel sched id in
          Reply [ ("id", int_ id); ("cancelled", Bool cancelled) ]),
      false )
  | Jobs ->
    let rows =
      List.map
        (fun (id, status) ->
          Obj
            [ ("id", int_ id); ("status", Str (Job.status_to_string status)) ])
        (Scheduler.jobs sched)
    in
    (Reply [ ("jobs", Arr rows) ], false)
  | Step turns ->
    let stepped = ref 0 in
    while !stepped < turns && Scheduler.step sched do
      incr stepped
    done;
    (Reply [ ("stepped", int_ !stepped) ], false)
  | Drain ->
    let stepped = ref 0 in
    while Scheduler.step sched do
      incr stepped
    done;
    (Reply [ ("stepped", int_ !stepped) ], false)
  | Wait id ->
    ( with_job sched id (fun _ ->
          let continue = ref true in
          while
            !continue
            && not
                 (match Scheduler.status sched id with
                 | Some s -> Job.terminal s
                 | None -> true)
          do
            continue := Scheduler.step sched
          done;
          match Scheduler.status sched id with
          | Some s ->
            Reply [ ("id", int_ id); ("status", Str (Job.status_to_string s)) ]
          | None ->
            Refuse (err Unknown_id (Printf.sprintf "unknown job id %d" id))),
      false )
  | Metrics -> (Reply (metrics_fields sched), false)
  | Subscribe _ ->
    (* The stdio loop broadcasts every event line already; acknowledging
       keeps one client code path for both transports. *)
    (Reply [ ("subscribed", Bool true) ], false)
  | Shutdown -> (Reply [ ("shutdown", Bool true) ], true)

let serve ?(echo = fun _ -> ()) sched ic oc =
  let emit line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    echo line
  in
  let shutdown = ref false in
  (try
     while not !shutdown do
       let line = input_line ic in
       let line = String.trim line in
       if line <> "" then begin
         echo line;
         let seq, (reply, stop) =
           match of_string line with
           | Error msg ->
             (None, (Refuse (err Parse ("bad JSON: " ^ msg)), false))
           | Ok v -> (
             ( seq_of_json v,
               match request_of_json v with
               | Error e -> (Refuse e, false)
               | Ok req -> handle sched req ))
         in
         emit (to_string (render ~seq reply));
         shutdown := stop
       end
     done
   with End_of_file -> ());
  (* Whatever was submitted still completes: a piped session that ends
     right after its submits is a valid batch. *)
  Scheduler.drain sched;
  Scheduler.stop sched
