(* Cross-module property tests: invariants that must hold over random
   circuits, placements and seeds rather than hand-picked cases. *)

let gen_circuit ~seed ~scale name =
  let prof = Circuitgen.Profiles.find name in
  Circuitgen.Gen.generate (Circuitgen.Profiles.params ~scale prof ~seed)

let random_placement rng (c : Netlist.Circuit.t) pads =
  let p = Circuitgen.Gen.initial_placement c pads in
  let r = c.Netlist.Circuit.region in
  Array.iter
    (fun (cl : Netlist.Cell.t) ->
      if Netlist.Cell.movable cl then begin
        p.Netlist.Placement.x.(cl.Netlist.Cell.id) <-
          Numeric.Rng.uniform rng r.Geometry.Rect.x_lo r.Geometry.Rect.x_hi;
        p.Netlist.Placement.y.(cl.Netlist.Cell.id) <-
          Numeric.Rng.uniform rng r.Geometry.Rect.y_lo r.Geometry.Rect.y_hi
      end)
    c.Netlist.Circuit.cells;
  p

let prop_density_always_balanced =
  QCheck.Test.make ~count:20 ~name:"density grid sums to zero for any placement"
    QCheck.small_int (fun seed ->
      let c, pads = gen_circuit ~seed:3 ~scale:0.3 "fract" in
      let rng = Numeric.Rng.create seed in
      let p = random_placement rng c pads in
      let g = Density.Density_map.balance (Density.Density_map.demand c p ~nx:16 ~ny:16) in
      Float.abs (Geometry.Grid2.total g) < 1e-6)

let prop_sta_slacks_nonnegative =
  QCheck.Test.make ~count:20
    ~name:"all analysed net slacks ≥ 0 (longest path defines required times)"
    QCheck.small_int (fun seed ->
      let c, pads = gen_circuit ~seed:5 ~scale:0.3 "primary1" in
      let rng = Numeric.Rng.create seed in
      let p = random_placement rng c pads in
      let sta = Timing.Sta.analyse Timing.Params.default c p in
      Array.for_all (fun s -> s >= -1e-15) sta.Timing.Sta.net_slack)

let prop_sta_some_zero_slack =
  QCheck.Test.make ~count:20
    ~name:"the longest path leaves at least one zero-slack net"
    QCheck.small_int (fun seed ->
      let c, pads = gen_circuit ~seed:5 ~scale:0.3 "primary1" in
      let rng = Numeric.Rng.create seed in
      let p = random_placement rng c pads in
      let sta = Timing.Sta.analyse Timing.Params.default c p in
      (* Unless the worst endpoint is a lone dangling cell, some edge on
         the longest path has zero slack. *)
      sta.Timing.Sta.analysed_nets = 0
      || Array.exists (fun s -> Float.abs s < 1e-12) sta.Timing.Sta.net_slack)

let prop_removing_a_net_never_increases_delay =
  QCheck.Test.make ~count:15
    ~name:"removing a net never increases the longest path"
    QCheck.small_int (fun seed ->
      let c, pads = gen_circuit ~seed:7 ~scale:0.3 "fract" in
      let rng = Numeric.Rng.create seed in
      let p = random_placement rng c pads in
      let full = (Timing.Sta.analyse Timing.Params.default c p).Timing.Sta.max_delay in
      (* Drop one random net (rebuilding ids to stay contiguous). *)
      let drop = Numeric.Rng.int rng (Netlist.Circuit.num_nets c) in
      let kept =
        Array.to_list (Netlist.Circuit.nets c)
        |> List.filteri (fun i _ -> i <> drop)
        |> List.mapi (fun i (n : Netlist.Net.t) -> { n with Netlist.Net.id = i })
        |> Array.of_list
      in
      let c' =
        Netlist.Circuit.make ~name:"dropped" ~cells:c.Netlist.Circuit.cells
          ~nets:kept ~region:c.Netlist.Circuit.region
          ~row_height:c.Netlist.Circuit.row_height
      in
      let reduced =
        (Timing.Sta.analyse Timing.Params.default c' p).Timing.Sta.max_delay
      in
      reduced <= full +. 1e-15)

let prop_forces_mirror_symmetry =
  QCheck.Test.make ~count:15
    ~name:"mirroring the density mirrors the force field (x antisymmetry)"
    QCheck.small_int (fun seed ->
      let rng = Numeric.Rng.create seed in
      let n = 8 in
      let d = Array.init (n * n) (fun _ -> Numeric.Rng.uniform rng (-1.) 1.) in
      let mirrored =
        Array.init (n * n) (fun i ->
            let r = i / n and c = i mod n in
            d.((r * n) + (n - 1 - c)))
      in
      let f = Numeric.Poisson.fft_force_field ~rows:n ~cols:n ~hx:1. ~hy:1. d in
      let g =
        Numeric.Poisson.fft_force_field ~rows:n ~cols:n ~hx:1. ~hy:1. mirrored
      in
      let ok = ref true in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          let i = (r * n) + c and j = (r * n) + (n - 1 - c) in
          if Float.abs (f.Numeric.Poisson.fx.(i) +. g.Numeric.Poisson.fx.(j)) > 1e-9
          then ok := false;
          if Float.abs (f.Numeric.Poisson.fy.(i) -. g.Numeric.Poisson.fy.(j)) > 1e-9
          then ok := false
        done
      done;
      !ok)

let prop_io_roundtrip_any_seed =
  QCheck.Test.make ~count:10 ~name:"text IO roundtrips generated circuits"
    QCheck.small_int (fun seed ->
      let c, _ = gen_circuit ~seed ~scale:0.2 "fract" in
      let file = Filename.temp_file "prop_io" ".ckt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Netlist.Io.save_circuit file c;
          match Netlist.Io.load_circuit file with
          | Error _ -> false
          | Ok c' ->
            Netlist.Circuit.num_cells c = Netlist.Circuit.num_cells c'
            && Netlist.Circuit.num_nets c = Netlist.Circuit.num_nets c'
            && c.Netlist.Circuit.net_start = c'.Netlist.Circuit.net_start
            && c.Netlist.Circuit.pin_cell = c'.Netlist.Circuit.pin_cell))

(* The lines of a saved small circuit, as tokens, mutated below. *)
let saved_lines =
  lazy
    (let c, _ = gen_circuit ~seed:1 ~scale:0.2 "fract" in
     let file = Filename.temp_file "prop_fuzz" ".ckt" in
     Fun.protect
       ~finally:(fun () -> Sys.remove file)
       (fun () ->
         Netlist.Io.save_circuit file c;
         In_channel.with_open_text file In_channel.input_all
         |> String.split_on_char '\n'
         |> List.map (fun l -> Array.of_list (String.split_on_char ' ' l))
         |> Array.of_list))

(* One random edit of one line: a dropped, swapped or duplicated token,
   a non-finite number, or an out-of-range or malformed pin field. *)
let mutate rng (lines : string array array) =
  let pick a = a.(Numeric.Rng.int rng (Array.length a)) in
  let l = Numeric.Rng.int rng (Array.length lines) in
  let toks = lines.(l) in
  let n = Array.length toks in
  if n = 0 then lines
  else
  let i = Numeric.Rng.int rng n and j = Numeric.Rng.int rng n in
  let pin_field k v =
    match String.split_on_char ':' toks.(i) with
    | [ _; _; _ ] as fields ->
      String.concat ":" (List.mapi (fun m f -> if m = k then v else f) fields)
    | _ -> v
  in
  let toks =
    match Numeric.Rng.int rng 7 with
    | 0 -> Array.append (Array.sub toks 0 i) (Array.sub toks (i + 1) (n - i - 1))
    | 1 ->
      let t = Array.copy toks in
      t.(i) <- toks.(j);
      t.(j) <- toks.(i);
      t
    | 2 -> Array.append toks [| toks.(i) |]
    | 3 -> Array.mapi (fun k t -> if k = i then pick [| "nan"; "inf"; "-inf"; "" |] else t) toks
    | 4 ->
      let bad = pick [| "-1"; "100000"; "99999999999999999999"; "x" |] in
      Array.mapi (fun k t -> if k = i then pin_field 0 bad else t) toks
    | 5 ->
      Array.mapi (fun k t -> if k = i then pin_field (1 + Numeric.Rng.int rng 2) "nan" else t) toks
    | _ -> Array.mapi (fun k t -> if k = i then pick [| "0"; "-3"; "1:2"; "net" |] else t) toks
  in
  Array.mapi (fun k t -> if k = l then toks else t) lines

let prop_io_fuzz_never_raises =
  QCheck.Test.make ~count:300 ~name:"mutated circuit text gives Ok or Error, never raises"
    QCheck.int (fun seed ->
      let rng = Numeric.Rng.create seed in
      let lines = ref (Lazy.force saved_lines) in
      for _ = 0 to Numeric.Rng.int rng 3 do
        lines := mutate rng !lines
      done;
      let text =
        Array.to_list !lines
        |> List.map (fun t -> String.concat " " (Array.to_list t))
        |> String.concat "\n"
      in
      let file = Filename.temp_file "prop_fuzz" ".ckt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Out_channel.with_open_text file (fun oc -> output_string oc text);
          match Netlist.Io.load_circuit file with Ok _ | Error _ -> true))

(* Floats that stress a [%.17g] writer: any bit pattern (NaNs with
   payloads included), signed zeros and subnormals, the infinities,
   small integers such as step counts, and integral values from either
   side of 1e15, where the reference JSON writer switches from [%.0f]
   to [%.17g], up to 1e17. *)
let adversarial_float =
  let open QCheck.Gen in
  let signed g = map2 (fun neg v -> if neg then -.v else v) bool g in
  frequency
    [
      (3, map Int64.float_of_bits ui64);
      ( 1,
        oneofl
          [ 0.; -0.; Float.infinity; Float.neg_infinity; Float.nan; 5e-324;
            Float.min_float; Float.max_float; 1e15; Float.pred 1e15; 1e17 ] );
      (2, signed (map (fun b -> Int64.(float_of_bits (shift_right_logical b 12))) ui64));
      (1, signed (map float_of_int (int_range 0 1_000_000)));
      (2, signed (map (fun e -> Float.round (10. ** e)) (float_range 15. 17.)));
      (1, signed (map (fun k -> 1e15 +. (0.5 *. float_of_int k)) (int_range (-9) 9)));
    ]

let adversarial_floats =
  QCheck.make
    ~print:(fun a -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)))
    QCheck.Gen.(array_size (int_range 1 64) adversarial_float)

(* What [f oc v] writes to a file. *)
let written f v =
  let file = Filename.temp_file "prop_bytes" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> f oc v);
      In_channel.with_open_bin file In_channel.input_all)

let prop_float_text_is_printf =
  QCheck.Test.make ~count:200 ~name:"float text is Printf's %.17g, byte for byte"
    adversarial_floats (fun a ->
      let p = { Netlist.Placement.x = a; y = Array.map Float.neg a } in
      written Netlist.Io.write_placement p = written Io_oracle.write_placement p
      && Array.for_all
           (fun v -> Obs.Json.to_string (Obs.Json.Num v) = Io_oracle.json_number v)
           a)

let byte_circuit = lazy (fst (gen_circuit ~seed:5 ~scale:0.2 "fract"))

(* The circuit with pin offsets, cell sizes, delays and powers drawn
   from the finite adversarial values (sizes made positive). *)
let with_values (c : Netlist.Circuit.t) values =
  let k = ref 0 in
  let next () =
    let v = values.(!k mod Array.length values) in
    incr k;
    v
  in
  let size () = match Float.abs (next ()) with 0. -> 5e-324 | v -> v in
  let cells =
    Array.map
      (fun (cl : Netlist.Cell.t) ->
        let width = size () in
        let height = size () in
        let delay = next () in
        { cl with Netlist.Cell.width; height; delay; power = next () })
      c.Netlist.Circuit.cells
  in
  let nets =
    Array.map
      (fun (n : Netlist.Net.t) ->
        let pins =
          Array.map
            (fun (p : Netlist.Net.pin) ->
              let dx = next () in
              { p with Netlist.Net.dx; dy = next () })
            n.Netlist.Net.pins
        in
        { n with Netlist.Net.pins })
      (Netlist.Circuit.nets c)
  in
  Netlist.Circuit.make ~name:c.Netlist.Circuit.name ~cells ~nets
    ~region:c.Netlist.Circuit.region ~row_height:c.Netlist.Circuit.row_height

let prop_circuit_text_is_printf =
  QCheck.Test.make ~count:30 ~name:"circuit text is the Printf writer's, byte for byte"
    adversarial_floats (fun a ->
      let finite = Array.map (fun v -> if Float.is_finite v then v else 0.5) a in
      let c = with_values (Lazy.force byte_circuit) finite in
      written Netlist.Io.write_circuit c = written Io_oracle.write_circuit c)

let prop_annealer_accounting =
  QCheck.Test.make ~count:5 ~name:"annealer final_hpwl matches recomputed HPWL"
    QCheck.small_int (fun seed ->
      let c, pads = gen_circuit ~seed:9 ~scale:0.3 "fract" in
      let p0 = Circuitgen.Gen.initial_placement c pads in
      let config = { Baselines.Annealer.quick_config with Baselines.Annealer.seed } in
      let p, stats = Baselines.Annealer.place ~config c p0 in
      Float.abs (stats.Baselines.Annealer.final_hpwl -. Metrics.Wirelength.hpwl c p)
      < 1e-6)

let prop_grouter_wirelength_lower_bound =
  QCheck.Test.make ~count:8
    ~name:"routed length ≥ Manhattan bin distance per connection"
    QCheck.small_int (fun seed ->
      let c, pads = gen_circuit ~seed:11 ~scale:0.25 "fract" in
      let rng = Numeric.Rng.create seed in
      let p = random_placement rng c pads in
      let nx = 10 and ny = 10 in
      let r =
        match Route.Grouter.route c p (Route.Grid_spec.make ~nx ~ny ()) with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_report (Route.Grid_spec.error_message e)
      in
      (* Lower bound: star Manhattan distance over bins for every net. *)
      let grid = Geometry.Grid2.create c.Netlist.Circuit.region ~nx ~ny in
      let dx = Geometry.Grid2.dx grid and dy = Geometry.Grid2.dy grid in
      let bound = ref 0. in
      let bin k =
        let cl = c.Netlist.Circuit.pin_cell.(k) in
        Geometry.Grid2.locate grid
          (p.Netlist.Placement.x.(cl) +. c.Netlist.Circuit.pin_dx.(k))
          (p.Netlist.Placement.y.(cl) +. c.Netlist.Circuit.pin_dy.(k))
      in
      for n = 0 to Netlist.Circuit.num_nets c - 1 do
        let s = c.Netlist.Circuit.net_start.(n) in
        let dbx, dby = bin s in
        for k = s + 1 to c.Netlist.Circuit.net_start.(n + 1) - 1 do
          let bx, by = bin k in
          if (bx, by) <> (dbx, dby) then
            bound :=
              !bound
              +. (float_of_int (abs (bx - dbx)) *. dx)
              +. (float_of_int (abs (by - dby)) *. dy)
        done
      done;
      (* Star decomposition dedupes sink bins, so the actual lower bound
         is ≤ the naive per-pin bound; routed length must be ≤ naive is
         false in general, but ≥ the deduped bound always holds.  Use a
         safe weaker check: routed ≥ 0 and ≥ bound/4 (dedup can remove at
         most repeated pins, which the generator caps). *)
      r.Route.Grouter.total_wirelength >= !bound /. 4. -. 1e-9)

let prop_cluster_members_partition =
  QCheck.Test.make ~count:8 ~name:"clustering is a partition for any seed"
    QCheck.small_int (fun seed ->
      let c, pads = gen_circuit ~seed:13 ~scale:0.3 "primary1" in
      let t = Kraftwerk.Cluster.cluster ~seed c ~fixed_positions:pads in
      let n = Netlist.Circuit.num_cells c in
      let seen = Array.make n 0 in
      Array.iter
        (fun group -> List.iter (fun id -> seen.(id) <- seen.(id) + 1) group)
        t.Kraftwerk.Cluster.members;
      Array.for_all (fun k -> k = 1) seen)

let prop_domino_never_worsens =
  QCheck.Test.make ~count:5 ~name:"domino never increases HPWL and keeps legality"
    QCheck.small_int (fun seed ->
      let c, pads = gen_circuit ~seed ~scale:0.4 "fract" in
      let p0 = Circuitgen.Gen.initial_placement c pads in
      let state, _ = Kraftwerk.Placer.run Kraftwerk.Config.standard c p0 in
      let rep = Legalize.Abacus.legalize c state.Kraftwerk.Placer.placement () in
      let p = rep.Legalize.Abacus.placement in
      let before = Metrics.Wirelength.hpwl c p in
      ignore (Legalize.Domino.run c p);
      Metrics.Wirelength.hpwl c p <= before +. 1e-6 && Legalize.Check.is_legal c p)

(* The exact reader: [%.17g] text of any float reads back to its bits
   (NaN to a NaN), through [Numtext.float_of_sub] and, where it reads a
   number, [Numtext.scan_float]. *)
let prop_float_text_reads_back =
  QCheck.Test.make ~count:300 ~name:"float text reads back to its bits"
    adversarial_floats (fun a ->
      Array.for_all
        (fun v ->
          let b = Buffer.create 32 in
          Numtext.add_float b v;
          let s = Buffer.contents b and slot = [| 0. |] in
          let r = Numtext.float_of_sub s 0 (String.length s) in
          let e = Numtext.scan_float s 0 (String.length s) slot 0 in
          (if Float.is_nan v then Float.is_nan r
           else Int64.bits_of_float r = Int64.bits_of_float v)
          && (e < 0 || (e = String.length s && slot.(0) = r)))
        a)

(* Decimal text as the readers meet it, and the cases that stress an
   exact conversion: 1 to 25 digits around an optional point, signs,
   leading zeros, any exponent; subnormals, the overflow threshold,
   exact halfway points between two doubles, and broken text. *)
let decimal_text =
  let open QCheck.Gen in
  let digit = map (fun d -> Char.chr (48 + d)) (int_range 0 9) in
  let plain =
    let* sign = oneofl [ ""; "-"; "+" ] in
    let* zeros = int_range 0 3 in
    let* n = int_range 1 25 in
    let* ds = string_size ~gen:digit (return n) in
    let* point = int_range (-1) n in
    let* exp =
      frequency
        [
          (2, return "");
          ( 3,
            let* e = oneofl [ "e"; "E" ] in
            let* es = oneofl [ ""; "-"; "+" ] in
            let* v = frequency [ (4, int_range 0 30); (2, int_range 0 400) ] in
            return (e ^ es ^ string_of_int v) );
        ]
    in
    let ds = String.make zeros '0' ^ ds in
    let ds =
      if point < 0 then ds
      else
        let at = point + zeros in
        String.sub ds 0 at ^ "." ^ String.sub ds at (String.length ds - at)
    in
    return (sign ^ ds ^ exp)
  in
  let halfway =
    (* 53 significant bits, a one, then zeros: a tie, read exactly *)
    let* t = int_range 1 10 in
    let* m = ui64 in
    let m = Int64.logor (Int64.shift_left 1L 52) (Int64.shift_right_logical m 12) in
    let x = Int64.logor (Int64.shift_left m t) (Int64.shift_left 1L (t - 1)) in
    let* d = int_range (-1) 1 in
    return (Int64.to_string (Int64.add x (Int64.of_int d)))
  in
  let printed =
    let* v = map Int64.float_of_bits ui64 in
    let* p = int_range 1 25 in
    let* sub = map (fun b -> Int64.float_of_bits (Int64.shift_right_logical b 11)) ui64 in
    oneofl [ Printf.sprintf "%.*g" p v; Printf.sprintf "%.17g" sub; Printf.sprintf "%.*e" p sub ]
  in
  frequency
    [
      (5, plain);
      (2, halfway);
      (3, printed);
      ( 1,
        oneofl
          [ "1.7976931348623157e308"; "1.7976931348623158e308"; "1.7976931348623159e308";
            "1e309"; "2.4703282292062327e-324"; "2.4703282292062328e-324";
            "4.9406564584124654e-324"; "2.2250738585072011e-308";
            "2.2250738585072012e-308"; "9007199254740993"; "1e23"; "1e22"; "-0";
            "0e999"; "1e"; "1e+"; "."; "-"; ""; "1.5.3"; "inf"; "-nan"; "0x1p3";
            "1_000"; " 1"; "1 "; "1e000001"; "99999999999999999999e-20" ] );
    ]

let prop_decimal_text_is_float_of_string =
  QCheck.Test.make ~count:2000 ~name:"scanner reads decimal text as float_of_string"
    (QCheck.make ~print:(Printf.sprintf "%S") decimal_text) (fun s ->
      let n = String.length s in
      let expect = try Some (float_of_string s) with Failure _ -> None in
      let got = try Some (Numtext.float_of_sub s 0 n) with Failure _ -> None in
      let same a b =
        Int64.bits_of_float a = Int64.bits_of_float b
        || (Float.is_nan a && Float.is_nan b)
      in
      let slot = [| 0. |] in
      let e = Numtext.scan_float s 0 n slot 0 in
      (match (expect, got) with
      | Some a, Some b -> same a b
      | None, None -> true
      | _ -> false)
      && (e < 0 || same slot.(0) (float_of_string (String.sub s 0 e))))

(* Edits a line-splitting reader is sensitive to and a one-pass scanner
   might not be: number spellings [float_of_string] alone reads or
   refuses, broken exponents, doubled or trailing blanks, pins with a
   colon too many.  One to three edits land on one line (a header line
   one time in three), so a line often has several faults and the order
   in which its fields are checked shows. *)
let spellings =
  [| "nan"; "inf"; "1e400"; "-1e400"; "1e-400"; "1e"; "x"; "+5"; "0x10"; "1_0";
     "-0"; "00012"; ""; "1.5.3"; "-1"; "0"; "1"; "99999999999999999999";
     "standard"; "pad"; "5:"; ":"; "2::3" |]

let mutate_spelling rng (lines : string array array) =
  let pick a = a.(Numeric.Rng.int rng (Array.length a)) in
  let l =
    if Numeric.Rng.int rng 3 = 0 then Numeric.Rng.int rng (min 3 (Array.length lines))
    else Numeric.Rng.int rng (Array.length lines)
  in
  let toks = Array.copy lines.(l) in
  let n = Array.length toks in
  if n > 0 then
    for _ = 0 to Numeric.Rng.int rng 3 do
      let i = Numeric.Rng.int rng n in
      let t = toks.(i) in
      toks.(i) <-
        (match (Numeric.Rng.int rng 4, String.split_on_char ':' t) with
        | (0 | 1), [ c; dx; dy ] ->
          let f = [| c; dx; dy |] in
          f.(Numeric.Rng.int rng 3) <- pick spellings;
          String.concat ":" (Array.to_list f)
        | 0, _ -> pick spellings
        | 1, _ -> t ^ pick [| "\t"; "\r"; ":0"; " "; "e" |]
        | 2, _ -> pick [| " "; "\t"; "" |] ^ t
        | _ -> String.uppercase_ascii t)
    done;
  Array.mapi (fun k t -> if k = l then toks else t) lines

(* The reader on [text], through a file (so [load_circuit] adds the file
   name) and through the oracle on the same file. *)
let both_readers text read oracle =
  let file = Filename.temp_file "prop_oracle" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      (In_channel.with_open_bin file read, In_channel.with_open_bin file oracle))

let circuit_text c =
  let b = Buffer.create 4096 in
  Netlist.Io.add_circuit b c;
  Buffer.contents b

(* A region lower than one row is refused where the circuit is built,
   by the constructor each reader calls: the oracle's [Circuit.make]
   error must meet the reader's [Circuit.of_pins] error, at the same
   place. *)
let no_row (e : Netlist.Io.error) (e' : Netlist.Io.error) =
  e'.Netlist.Io.reason = "Circuit.make: region holds no row"
  && e = { e' with Netlist.Io.reason = "Circuit.of_pins: region holds no row" }

let prop_reader_is_oracle =
  QCheck.Test.make ~count:5000
    ~name:"mutated circuit text reads as the line-splitting reader reads it"
    QCheck.int (fun seed ->
      let rng = Numeric.Rng.create seed in
      let lines = ref (Lazy.force saved_lines) in
      for _ = 0 to Numeric.Rng.int rng 3 do
        lines :=
          if Numeric.Rng.int rng 2 = 0 then mutate rng !lines
          else mutate_spelling rng !lines
      done;
      let text =
        Array.to_list !lines
        |> List.map (fun t -> String.concat " " (Array.to_list t))
        |> String.concat "\n"
      in
      match both_readers text Netlist.Io.read_circuit Io_oracle.read_circuit with
      | Ok c, Ok c' ->
        circuit_text c = circuit_text c'
        && c.Netlist.Circuit.cell_nets = c'.Netlist.Circuit.cell_nets
      | Error e, Error e' -> e = e' || no_row e e'
      | Ok _, Error e | Error e, Ok _ ->
        QCheck.Test.fail_reportf "one reader accepted, the other: %s"
          (Netlist.Io.error_message e))

let prop_placement_reader_is_oracle =
  QCheck.Test.make ~count:2000
    ~name:"mutated placement text reads as the line-splitting reader reads it"
    QCheck.int (fun seed ->
      let rng = Numeric.Rng.create seed in
      let n = 40 in
      let p =
        { Netlist.Placement.x = Array.init n (fun _ -> Numeric.Rng.uniform rng (-50.) 50.);
          y = Array.init n (fun i -> float_of_int i /. 7.) }
      in
      let lines =
        written Netlist.Io.write_placement p
        |> String.split_on_char '\n'
        |> List.map (fun l -> Array.of_list (String.split_on_char ' ' l))
        |> Array.of_list
      in
      let lines = ref lines in
      for _ = 0 to Numeric.Rng.int rng 3 do
        lines :=
          if Numeric.Rng.int rng 2 = 0 then mutate rng !lines
          else mutate_spelling rng !lines
      done;
      let text =
        Array.to_list !lines
        |> List.map (fun t -> String.concat " " (Array.to_list t))
        |> String.concat "\n"
      in
      let bits (q : Netlist.Placement.t) =
        Array.map Int64.bits_of_float (Array.append q.Netlist.Placement.x q.Netlist.Placement.y)
      in
      match
        both_readers text
          (Netlist.Io.read_placement ~num_cells:n)
          (Io_oracle.read_placement ~num_cells:n)
      with
      | Ok q, Ok q' -> bits q = bits q'
      | Error e, Error e' -> e = e'
      | _ -> false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_density_always_balanced;
      prop_sta_slacks_nonnegative;
      prop_sta_some_zero_slack;
      prop_removing_a_net_never_increases_delay;
      prop_forces_mirror_symmetry;
      prop_io_roundtrip_any_seed;
      prop_annealer_accounting;
      prop_grouter_wirelength_lower_bound;
      prop_cluster_members_partition;
      prop_domino_never_worsens;
      prop_io_fuzz_never_raises;
      prop_float_text_is_printf;
      prop_circuit_text_is_printf;
      prop_float_text_reads_back;
      prop_decimal_text_is_float_of_string;
      prop_reader_is_oracle;
      prop_placement_reader_is_oracle;
    ]
