(* Command-line front end: generate benchmark circuits, run any of the
   placement flows, report quality metrics, and drive the job engine.

   Examples:
     place generate --profile struct --seed 7 -o struct.ckt
     place run --profile biomed --mode standard --objective timing
     place run --circuit struct.ckt --flow annealer
     place serve --concurrency 2 < commands.jsonl
     place batch jobs.jsonl -o results.jsonl
     place profiles *)

type flow =
  | Flow_kraftwerk
  | Flow_multilevel
  | Flow_gordian
  | Flow_annealer
  | Flow_floorplan

let flow_name = function
  | Flow_kraftwerk -> "kraftwerk"
  | Flow_multilevel -> "multilevel"
  | Flow_gordian -> "gordian"
  | Flow_annealer -> "annealer"
  | Flow_floorplan -> "floorplan"

(* Operational errors — unreadable files, malformed inputs, unknown
   profiles, unreachable servers — exit 2 with one stderr line; no
   backtraces.  (Cmdliner usage errors keep their own exit code.) *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "place: %s\n" msg;
      exit 2)
    fmt

let find_profile name =
  match Circuitgen.Profiles.find name with
  | prof -> prof
  | exception Not_found -> die "unknown profile %S (try: place profiles)" name

(* The job spec a [run] or [submit] command line describes. *)
let job_spec ~circuit_file ~profile ~scale ~seed ~goal ~mode ?effort ~flow
    ?priority ?deadline ?max_steps ?trace () =
  let source =
    match (circuit_file, profile) with
    | Some file, _ -> Engine.Source.File file
    | None, Some name -> Engine.Source.Profile { name; scale; seed }
    | None, None -> die "either --circuit or --profile is required"
  in
  Engine.Job.spec ~source
    ~objective:(Engine.Objective.make ~goal ~mode ?effort ~flow ())
    ?priority ?deadline ?max_steps ?trace ()

let load source =
  match Engine.Source.load source with
  | Ok cp -> cp
  | Error msg -> die "%s" msg

(* A Kraftwerk flow is one engine job, run to completion on the calling
   domain ([Engine.Scheduler.run_job]).  Returns the job's circuit,
   legal placement and result.  The job's own circuit is garbage once it
   ends, so the report's is loaded again from the same deterministic
   source: holding the first one in the [Finished] event would keep it
   alive through the scheduler's end-of-job collection, which sets a
   server's peak. *)
let place_job spec =
  match Engine.Scheduler.run_job spec with
  | ({ Engine.Job.status = Engine.Job.Done; _ } as r), Some f ->
    (fst (load spec.Engine.Job.source), f.Engine.Scheduler.legal, r)
  | { Engine.Job.status = Engine.Job.Failed msg; _ }, _ -> die "%s" msg
  | _ -> die "the job ended without a placement"

(* A baseline flow: [place] runs a global placer and the final placer
   on the source's circuit, timed as the engine times a job. *)
let place_baseline spec place =
  let c, p0 = load spec.Engine.Job.source in
  let t0 = Unix.gettimeofday () in
  let fin = place c p0 in
  let r = Engine.Job.completed spec.Engine.Job.objective c fin in
  (c, fin.Legalize.Finish.placement,
   { r with Engine.Job.wall_s = Unix.gettimeofday () -. t0 })

let cmd_generate profile scale seed output =
  let prof = find_profile profile in
  let params = Circuitgen.Profiles.params ~scale prof ~seed in
  let c, fixed = Circuitgen.Gen.generate params in
  Netlist.Io.save_circuit output c;
  let p = Circuitgen.Gen.initial_placement c fixed in
  Netlist.Io.save_placement (output ^ ".pos") p;
  Printf.printf "wrote %s (%d cells, %d nets) and %s.pos\n" output
    (Netlist.Circuit.num_cells c) (Netlist.Circuit.num_nets c) output

let cmd_run circuit_file profile scale seed flow mode effort goal output svg
    trace =
  (* [mode], [effort] and [goal] arrive through Cmdliner enum convs, so a
     bad flag is a usage error with a clean exit code before this
     function runs. *)
  let spec =
    job_spec ~circuit_file ~profile ~scale ~seed ~goal ~mode ?effort
      ~flow:(if flow = Flow_multilevel then Engine.Job.Multilevel else Engine.Job.Flat)
      ?trace ()
  in
  let c, final, r =
    match flow with
    | Flow_kraftwerk | Flow_multilevel ->
      (* The trace summary's counters come from the registry. *)
      if trace <> None then Obs.Registry.set_enabled true;
      place_job spec
    | Flow_gordian | Flow_annealer | Flow_floorplan when trace <> None ->
      die "--trace records Kraftwerk transformations: use --flow kraftwerk \
           or multilevel"
    | Flow_gordian ->
      place_baseline spec (fun c p0 ->
          Legalize.Finish.run c (fst (Baselines.Gordian.place c p0)))
    | Flow_annealer ->
      place_baseline spec (fun c p0 ->
          Legalize.Finish.run c
            (if goal = Engine.Objective.Timing then
               (Baselines.Timing_sa.place c p0).Baselines.Timing_sa.placement
             else fst (Baselines.Annealer.place c p0)))
    | Flow_floorplan ->
      let config = Engine.Objective.config spec.Engine.Job.objective in
      place_baseline spec (fun c p0 ->
          match Floorplan.Mixed.place config c p0 with
          | Ok r -> r.Floorplan.Mixed.finish
          | Error msg -> die "%s" msg)
  in
  Printf.printf "flow         %s (%s mode, %s objective)\n" (flow_name flow)
    (Engine.Objective.mode_to_string mode)
    (Engine.Objective.goal_to_string goal);
  Printf.printf "cpu          %.2f s\n" r.Engine.Job.wall_s;
  if flow <> Flow_floorplan then begin
    Printf.printf "improve      %d moves, hpwl -%.6g\n" r.Engine.Job.improve_moves
      r.Engine.Job.improve_delta;
    Printf.printf "domino       %d moves, hpwl -%.6g\n" r.Engine.Job.domino_moves
      r.Engine.Job.domino_delta
  end;
  Printf.printf "cells        %d\n" (Netlist.Circuit.num_cells c);
  Printf.printf "nets         %d\n" (Netlist.Circuit.num_nets c);
  Printf.printf "hpwl         %.6g\n" r.Engine.Job.hpwl;
  Printf.printf "overlap      %.4f\n" r.Engine.Job.overlap;
  Printf.printf "legal        %b\n" r.Engine.Job.legal;
  if goal = Engine.Objective.Timing then begin
    let sta = Timing.Sta.analyse Timing.Params.default c final in
    Printf.printf "longest path %.4g ns\n" (sta.Timing.Sta.max_delay *. 1e9);
    List.iter
      (fun path -> Format.printf "%a" (Timing.Paths.pp_path c) path)
      (Timing.Paths.critical ~k:3 Timing.Params.default c final)
  end;
  (if Engine.Objective.routed_validation spec.Engine.Job.objective then
     match (r.Engine.Job.routed_overflow, r.Engine.Job.routed_max_overflow,
            r.Engine.Job.routed_wirelength) with
     | Some total, Some worst, Some wl ->
       Printf.printf "routed ovfl  %.6g (max %.6g)\n" total worst;
       Printf.printf "routed wl    %.6g\n" wl
     | _ -> print_endline "routed ovfl  unavailable (unusable routing grid)");
  (match trace with
  | Some file ->
    Printf.printf "trace        written to %s (%d iteration records)\n" file
      r.Engine.Job.iterations
  | None -> ());
  (match output with
  | Some file ->
    Netlist.Io.save_placement file final;
    Printf.printf "placement    written to %s\n" file
  | None -> ());
  match svg with
  | Some file ->
    Viz.Svg.save file c final;
    Printf.printf "svg          written to %s\n" file
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Job engine front ends                                               *)

let parse_address s =
  match Server.Address.of_string s with
  | Ok addr -> addr
  | Error msg -> die "%s" msg

(* [place serve]: the line-oriented JSON protocol (see Engine.Protocol).
   Without --listen it runs synchronously on stdin/stdout; with --listen
   it becomes the concurrent socket server (Server.Net), multiplexing
   many clients onto one scheduler with admission control and graceful
   drain.  --transcript copies the whole conversation to a file. *)
let cmd_serve concurrency domains transcript listen max_pending
    max_conns request_timeout idle_timeout drain_grace =
  match listen with
  | Some addr_str -> (
    let address = parse_address addr_str in
    let cfg =
      {
        (Server.Net.config address) with
        Server.Net.concurrency;
        domains;
        max_pending;
        max_conns;
        request_timeout_s = request_timeout;
        idle_timeout_s = idle_timeout;
        drain_grace_s = drain_grace;
        transcript;
      }
    in
    match Server.Net.run cfg with Ok () -> () | Error msg -> die "%s" msg)
  | None ->
    let transcript_oc = Option.map open_out transcript in
    let echo line =
      match transcript_oc with
      | Some oc ->
        output_string oc line;
        output_char oc '\n';
        flush oc
      | None -> ()
    in
    let ev = ref 0 in
    let emit_event e =
      incr ev;
      let line = Obs.Json.to_string (Engine.Protocol.event_to_json ~ev:!ev e) in
      print_string line;
      print_newline ();
      flush stdout;
      echo line
    in
    let sched =
      Engine.Scheduler.create ~concurrency ~domains ~on_event:emit_event ()
    in
    Engine.Protocol.serve ~echo sched stdin stdout;
    Option.iter close_out transcript_oc

(* ------------------------------------------------------------------ *)
(* Network client commands                                              *)

let client_connect to_addr =
  match Server.Client.connect ~retries:8 (parse_address to_addr) with
  | Ok cl -> cl
  | Error msg -> die "%s" msg

let client_ok = function
  | Ok v -> v
  | Error f -> die "%s" (Server.Client.failure_message f)

(* [place submit]: ship one job to a running server; with --wait, park
   until it is terminal and print its result line.  Exit 1 when the
   awaited job failed, 2 on operational errors. *)
let cmd_submit to_addr circuit_file profile scale seed mode flow effort goal
    priority deadline max_steps wait =
  let spec =
    job_spec ~circuit_file ~profile ~scale ~seed ~goal ~mode ?effort ~flow
      ~priority ?deadline ?max_steps ()
  in
  let cl = client_connect to_addr in
  let id = client_ok (Server.Client.submit cl spec) in
  if not wait then begin
    Printf.printf "{\"id\":%d,\"status\":\"queued\"}\n%!" id;
    Server.Client.close cl
  end
  else begin
    let status, result = client_ok (Server.Client.wait cl id) in
    let fields =
      [
        ("id", Obs.Json.Num (float_of_int id));
        ("status", Obs.Json.Str status);
      ]
      @ match result with Some r -> [ ("result", r) ] | None -> []
    in
    print_endline (Obs.Json.to_string (Obs.Json.Obj fields));
    Server.Client.close cl;
    if status = "failed" then exit 1
  end

(* [place watch]: stream a server's numbered event lines to stdout,
   reconnecting and resuming from the last seen event on transport
   failure.  Ends cleanly when the server goes away for good. *)
let cmd_watch to_addr from_ev =
  let cl = client_connect to_addr in
  client_ok (Server.Client.subscribe ?from_ev cl);
  let rec loop () =
    match Server.Client.next_event ~timeout_s:1.0 cl with
    | Ok None -> loop ()
    | Ok (Some ev) ->
      print_endline (Obs.Json.to_string ev);
      flush stdout;
      loop ()
    | Error (Server.Client.Transport _) ->
      (* The server drained and exited; a watcher ending with it is the
         normal end of the stream, not an error. *)
      Printf.eprintf "place: server closed the event stream\n"
    | Error f -> die "%s" (Server.Client.failure_message f)
  in
  loop ();
  Server.Client.close cl

(* [place metrics]: one-shot dump of a running server's Obs.Registry. *)
let cmd_metrics to_addr =
  let cl = client_connect to_addr in
  let fields = client_ok (Server.Client.metrics cl) in
  print_endline (Obs.Json.to_string (Obs.Json.Obj fields));
  Server.Client.close cl

(* [place batch]: submit every job spec of a JSONL file, run them all,
   and write one result line per job (submission order). *)
let cmd_batch jobs_file concurrency domains output =
  let specs =
    In_channel.with_open_text jobs_file (fun ic ->
        let rec read acc lineno =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line when String.trim line = "" -> read acc (lineno + 1)
          | Some line -> (
            match Obs.Json.of_string line with
            | Error msg ->
              Printf.eprintf "%s:%d: bad JSON: %s\n" jobs_file lineno msg;
              exit 1
            | Ok v -> (
              match Engine.Job.spec_of_json v with
              | Error msg ->
                Printf.eprintf "%s:%d: %s\n" jobs_file lineno msg;
                exit 1
              | Ok spec -> read (spec :: acc) (lineno + 1)))
        in
        read [] 1)
  in
  if specs = [] then begin
    Printf.eprintf "%s: no job specs\n" jobs_file;
    exit 1
  end;
  let sched = Engine.Scheduler.create ~concurrency ~domains () in
  let ids = List.map (fun spec -> (Engine.Scheduler.submit sched spec, spec)) specs in
  Engine.Scheduler.drain sched;
  Engine.Scheduler.stop sched;
  let oc = match output with Some f -> open_out f | None -> stdout in
  let failed = ref false in
  List.iter
    (fun (id, spec) ->
      let result =
        match Engine.Scheduler.result sched id with
        | Some r ->
          (match r.Engine.Job.status with
          | Engine.Job.Failed _ -> failed := true
          | _ -> ());
          Engine.Job.result_to_json r
        | None ->
          failed := true;
          Obs.Json.Obj [ ("status", Obs.Json.Str "lost") ]
      in
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("id", Obs.Json.Num (float_of_int id));
                ("source", Obs.Json.Str (Engine.Source.describe spec.Engine.Job.source));
                ("result", result);
              ]));
      output_char oc '\n')
    ids;
  if output <> None then close_out oc;
  if !failed then exit 1

let cmd_profiles () =
  Printf.printf "%-12s %8s %8s %6s\n" "profile" "cells" "nets" "rows";
  List.iter
    (fun (p : Circuitgen.Profiles.t) ->
      Printf.printf "%-12s %8d %8d %6d\n" p.Circuitgen.Profiles.profile_name
        p.Circuitgen.Profiles.cells p.Circuitgen.Profiles.nets
        p.Circuitgen.Profiles.rows)
    Circuitgen.Profiles.all

open Cmdliner

(* Engine and server limits outside their range are usage errors naming
   the range, not an Invalid_argument from the scheduler or a server
   running with a nonsense bound. *)
let int_conv ~range ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | _ ->
      Error (Printf.sprintf "invalid value '%s', expected an integer %s" s range)
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

let positive_int = int_conv ~range:">= 1" (fun n -> n >= 1)

let domains_conv =
  let max = Engine.Scheduler.max_workers in
  int_conv ~range:(Printf.sprintf "in 1..%d" max) (fun n -> n >= 1 && n <= max)

let seconds_conv =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x >= 0. -> Ok x
    | _ ->
      Error (Printf.sprintf "invalid value '%s', expected a finite number >= 0" s)
  in
  Arg.conv' ~docv:"SECONDS" (parse, Format.pp_print_float)

let profile_arg =
  Arg.(value & opt (some string) None & info [ "profile" ] ~doc:"Benchmark profile name.")

let mode_arg =
  Arg.(value
       & opt (enum [ ("standard", Engine.Job.Standard); ("fast", Engine.Job.Fast) ])
           Engine.Job.Standard
       & info [ "mode" ] ~doc:"$(docv) is either standard or fast.")

let objective_arg =
  Arg.(value
       & opt
           (enum
              [
                ("wirelength", Engine.Objective.Wirelength);
                ("routability", Engine.Objective.Routability);
                ("timing", Engine.Objective.Timing);
              ])
           Engine.Objective.Wirelength
       & info [ "objective" ]
           ~doc:"What the run optimises for: wirelength (the default \
                 area-driven placement), routability (the closed \
                 congestion loop plus routed-overflow validation with \
                 the global router), or timing (slack-driven net \
                 reweighting).")

let effort_arg =
  (* An enum rather than a bare int: a bad value is a usage error listing
     the valid presets, and the doc string enumerates them. *)
  let presets = List.init 9 (fun i -> (string_of_int (i + 1), i + 1)) in
  Arg.(value
       & opt (some (enum presets)) None
       & info [ "effort" ]
           ~doc:"Quality-vs-latency preset, $(docv) in 1..9: bundles CG \
                 tolerance, density-grid size, legalization cadence and \
                 the LB/UB stop gap (5 = standard).  Overrides --mode.")

let scale_conv =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0. && x <= 1. -> Ok x
    | _ -> Error (Printf.sprintf "invalid value '%s', expected a number in (0, 1]" s)
  in
  Arg.conv' ~docv:"SCALE" (parse, Format.pp_print_float)

let scale_arg =
  Arg.(value & opt scale_conv 1.0
       & info [ "scale" ] ~doc:"Shrink factor for quick runs, in (0, 1].")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")

let generate_cmd =
  let profile =
    Arg.(required & opt (some string) None & info [ "profile" ] ~doc:"Profile name.")
  in
  let output =
    Arg.(value & opt string "circuit.ckt" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a benchmark circuit")
    Term.(const cmd_generate $ profile $ scale_arg $ seed_arg $ output)

let run_cmd =
  let circuit =
    Arg.(value & opt (some string) None & info [ "circuit" ] ~doc:"Circuit file (.ckt text format or Bookshelf .aux).")
  in
  let flow =
    (* enum convs: an unknown name is a usage error (exit 124), not a
       backtrace. *)
    Arg.(value
         & opt
             (enum
                [
                  ("kraftwerk", Flow_kraftwerk);
                  ("multilevel", Flow_multilevel);
                  ("gordian", Flow_gordian);
                  ("annealer", Flow_annealer);
                  ("floorplan", Flow_floorplan);
                ])
             Flow_kraftwerk
         & info [ "flow" ] ~doc:"$(docv) is one of kraftwerk, multilevel, \
                                 gordian, annealer or floorplan.")
  in
  let mode = mode_arg in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Save placement.")
  in
  let svg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~doc:"Render the placement to an SVG file.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
             ~doc:"Write placement telemetry as JSONL: one record per \
                   placement transformation (HPWL, density overflow, \
                   forces, CG and phase timings) plus a final summary \
                   record.  See HACKING.md, Observability.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Place a circuit and report metrics")
    Term.(const cmd_run $ circuit $ profile_arg $ scale_arg $ seed_arg $ flow
          $ mode $ effort_arg $ objective_arg $ output
          $ svg $ trace)

let profiles_cmd =
  Cmd.v (Cmd.info "profiles" ~doc:"List benchmark profiles")
    Term.(const cmd_profiles $ const ())

let concurrency_arg =
  Arg.(value & opt positive_int 1
       & info [ "concurrency" ]
           ~doc:"Jobs interleaved at once (transformation granularity).")

let engine_domains_arg =
  Arg.(value & opt domains_conv 1
       & info [ "domains" ]
           ~doc:"Worker domains: above 1, min(concurrency, N) worker \
                 domains run job slices from one shared run queue; at 1 \
                 (the default) the coordinator runs them.  Job \
                 trajectories are bitwise-identical either way.")

let serve_cmd =
  let transcript =
    Arg.(value & opt (some string) None
         & info [ "transcript" ]
             ~doc:"Copy every protocol request/response/event line to a \
                   JSONL file.")
  in
  let listen =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Serve concurrent clients on a socket instead of \
                   stdin/stdout: unix:/path (or any path with a '/'), \
                   tcp:host:port, host:port, or a bare port on \
                   127.0.0.1.")
  in
  let max_pending =
    Arg.(value & opt positive_int 64
         & info [ "max-pending" ]
             ~doc:"Admission bound: submits beyond this many queued jobs \
                   receive a typed overloaded error with a retry hint \
                   (socket mode).")
  in
  let max_conns =
    Arg.(value & opt positive_int 128
         & info [ "max-conns" ]
             ~doc:"Connection bound; excess connections are refused with \
                   an error line, never dropped silently (socket mode).")
  in
  let request_timeout =
    Arg.(value & opt seconds_conv 300.
         & info [ "request-timeout" ]
             ~doc:"Seconds a wait/drain request may stay parked before it \
                   is answered with a not_terminal error (socket mode).")
  in
  let idle_timeout =
    Arg.(value & opt seconds_conv 0.
         & info [ "idle-timeout" ]
             ~doc:"Close connections idle this many seconds with nothing \
                   outstanding; 0 disables (socket mode).")
  in
  let drain_grace =
    Arg.(value & opt seconds_conv 30.
         & info [ "drain-grace" ]
             ~doc:"On SIGTERM/SIGINT/shutdown, seconds to let in-flight \
                   jobs finish before they are cancelled down to legal \
                   best-so-far placements (socket mode).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the placement job engine on a JSON protocol: \
             stdin/stdout by default, a concurrent Unix-domain or TCP \
             socket server with --listen (submit, status, cancel, \
             result, wait, metrics, subscribe, shutdown — see \
             HACKING.md, Network serving)")
    Term.(const cmd_serve $ concurrency_arg $ engine_domains_arg $ transcript
          $ listen $ max_pending $ max_conns $ request_timeout $ idle_timeout
          $ drain_grace)

let to_arg =
  Arg.(required & opt (some string) None
       & info [ "to" ] ~docv:"ADDR"
           ~doc:"Server address: unix:/path, tcp:host:port, host:port or \
                 a bare port on 127.0.0.1.")

let submit_cmd =
  let circuit =
    Arg.(value & opt (some string) None
         & info [ "circuit" ]
             ~doc:"Circuit file (.ckt or Bookshelf .aux) the server can \
                   read.")
  in
  let priority =
    Arg.(value & opt int 0
         & info [ "priority" ] ~doc:"Higher runs first; FIFO within one.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ]
             ~doc:"Wall-clock budget in seconds; on expiry the job \
                   returns its best-so-far placement, legalised.")
  in
  let max_steps =
    Arg.(value & opt (some int) None
         & info [ "max-steps" ] ~doc:"Cap on placer iterations.")
  in
  let wait =
    Arg.(value & flag
         & info [ "wait" ]
             ~doc:"Park until the job is terminal and print its result \
                   line; exit 1 if it failed.")
  in
  let job_flow =
    Arg.(value
         & opt
             (enum
                [
                  ("flat", Engine.Job.Flat);
                  ("multilevel", Engine.Job.Multilevel);
                ])
             Engine.Job.Flat
         & info [ "flow" ]
             ~doc:"$(docv) is flat (one controller-driven loop) or \
                   multilevel (recursive cluster → place coarse → \
                   uncluster + refine V-cycle; the scale-up path for \
                   mega profiles).")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit one placement job to a running place serve --listen \
             server; prints a JSON line with the job id (and, with \
             --wait, the result)")
    Term.(const cmd_submit $ to_arg $ circuit $ profile_arg $ scale_arg
          $ seed_arg $ mode_arg $ job_flow $ effort_arg $ objective_arg
          $ priority $ deadline $ max_steps $ wait)

let watch_cmd =
  let from_ev =
    Arg.(value & opt (some int) None
         & info [ "from-ev" ]
             ~doc:"Replay buffered events after this number before \
                   streaming live ones.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Stream a server's job lifecycle events as JSONL, \
             reconnecting and resuming from the last seen event number \
             on transport failure")
    Term.(const cmd_watch $ to_arg $ from_ev)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Dump a running server's metric registry as one JSON object")
    Term.(const cmd_metrics $ to_arg)

let batch_cmd =
  let jobs_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"JOBS.jsonl" ~doc:"One job spec (JSON object) per line.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Write results JSONL here (default stdout).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run a file of job specs through the engine and report one \
             result line per job; exits nonzero when any job failed")
    Term.(const cmd_batch $ jobs_file $ concurrency_arg $ engine_domains_arg
          $ output)

let () =
  let doc = "force-directed global placement and floorplanning" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "place" ~doc)
          [
            generate_cmd;
            run_cmd;
            serve_cmd;
            submit_cmd;
            watch_cmd;
            metrics_cmd;
            batch_cmd;
            profiles_cmd;
          ]))
