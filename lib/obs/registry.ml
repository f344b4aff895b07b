(* Global named-metric store.  Disabled by default: every recording
   entry point loads one atomic bool and returns, so instrumented hot
   paths (CG, the FFT cache) pay nothing unless a
   caller opted in.  When enabled, updates take a single process-wide
   mutex — recording sites are coarse (per solve, per batch, per phase),
   never per element, so contention is negligible. *)

let state = Atomic.make false

let set_enabled b = Atomic.set state b

let enabled () = Atomic.get state

let lock = Mutex.create ()

let table : (string, Stat.t) Hashtbl.t = Hashtbl.create 64

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock

let observe name v =
  if Atomic.get state then begin
    Mutex.lock lock;
    let cur = Option.value (Hashtbl.find_opt table name) ~default:Stat.zero in
    Hashtbl.replace table name (Stat.observe cur v);
    Mutex.unlock lock
  end

let incr ?(by = 1.) name = observe name by

let get name =
  Mutex.lock lock;
  let s = Option.value (Hashtbl.find_opt table name) ~default:Stat.zero in
  Mutex.unlock lock;
  s

let snapshot () =
  Mutex.lock lock;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

(* Every proper '/'-separated prefix of a metric name is a node of the
   hierarchy; roll leaf stats up into their ancestors. *)
let ancestors name =
  let rec collect acc i =
    match String.index_from_opt name i '/' with
    | None -> acc
    | Some j -> collect (String.sub name 0 j :: acc) (j + 1)
  in
  collect [] 0

let rollup () =
  let merged = Hashtbl.create 64 in
  let add name s =
    let cur = Option.value (Hashtbl.find_opt merged name) ~default:Stat.zero in
    Hashtbl.replace merged name (Stat.merge cur s)
  in
  List.iter
    (fun (name, s) ->
      add name s;
      List.iter (fun a -> add a s) (ancestors name))
    (snapshot ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
