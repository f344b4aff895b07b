(** Plain-text serialisation of circuits and placements.

    A minimal line-oriented format so benchmark circuits and placements
    can be saved, diffed and reloaded:

    {v
    circuit <name>
    region <x_lo> <y_lo> <x_hi> <y_hi>
    rowheight <h>
    cell <name> <w> <h> <standard|block|pad> <fixed 0/1> <seq 0/1> <delay> <power>
    net <name> <cell>:<dx>:<dy> ...
    v}

    Cells are implicitly numbered in order of appearance; net pins refer to
    those numbers, first pin is the driver.

    Readers return a typed {!error} instead of raising, so front ends
    (the CLI, the serve protocol's [bad_spec] responses) can report a
    malformed file without catching exceptions.

    The readers read their input a large window at a time and scan it
    once by index ({!Scan}): no line is split into token lists, and the
    pin table fills flat arrays that {!Circuit.of_pins} adopts.  Numbers are
    read in place and exactly, to the bits [float_of_string] and
    [int_of_string] give ({!Numtext.float_of_sub}: Clinger's fast path,
    then Eisel–Lemire, then [float_of_string] itself where both
    decline), so a file {!write_circuit} wrote reads back to the same
    bits.  The error contract is the line-splitting reader's, unchanged:
    lines are numbered as [input_line] splits them and trimmed as
    [String.trim] trims them, fields are separated by single spaces,
    and on a line with several faults the same one is reported (a
    [region] or [cell] line's fields are checked right to left, a net's
    pins left to right, each pin's colon count first, then its cell,
    then [dy], then [dx]). *)

type error = {
  file : string option;  (** source file, when reading from one *)
  line : int option;  (** 1-based line of the offending input *)
  reason : string;
}

(** [error_message e] — ["file:line: reason"] with the parts present. *)
val error_message : error -> string

(** [finite s] is the finite float [s] spells, read exactly as
    [float_of_string] reads it; NaN, the infinities and unparsable text
    raise [Failure].  Also {!Bookshelf}'s number check. *)
val finite : string -> float

(** [write_circuit oc circuit] prints the circuit.  Numbers are written
    as Printf's [%d] and [%.17g] would write them ({!Numtext}), so a
    float reads back to the same bits. *)
val write_circuit : out_channel -> Circuit.t -> unit

(** [add_circuit buf circuit] appends the text {!write_circuit} prints. *)
val add_circuit : Buffer.t -> Circuit.t -> unit

(** [read_circuit ic] parses a circuit from the rest of [ic] (seekable
    or not).  Malformed input is an [Error] carrying the line number: an
    unparsable or non-finite number, a net of fewer than two pins or
    with a repeated pin, a negative or unknown cell index, a
    non-positive cell size or row height, an inverted or empty
    region. *)
val read_circuit : in_channel -> (Circuit.t, error) result

(** [write_placement oc placement] prints one [pos <id> <x> <y>] line per
    cell. *)
val write_placement : out_channel -> Placement.t -> unit

(** [read_placement ic ~num_cells] parses a placement with exactly
    [num_cells] entries, all finite: a missing cell, or a second [pos]
    line for one cell (the error names the repeat's line), is an
    [Error]. *)
val read_placement : in_channel -> num_cells:int -> (Placement.t, error) result

(** File-based conveniences.  The loaders also turn an unreadable file
    ([Sys_error]) into an [Error]. *)
val save_circuit : string -> Circuit.t -> unit

val load_circuit : string -> (Circuit.t, error) result

val save_placement : string -> Placement.t -> unit

val load_placement : string -> num_cells:int -> (Placement.t, error) result
