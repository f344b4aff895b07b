(** A minimal JSON representation with a writer and a parser — enough to
    emit the telemetry trace as JSONL and to read it back in tests and
    analysis scripts without an external dependency.

    Numbers are stored as floats and written as [%.17g] writes them
    ({!Numtext}; integral values below 1e17 without a point), so
    [of_string (to_string v)] reproduces [v] bit-for-bit for finite
    numbers.  NaN and infinities have no JSON encoding and are written
    as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [member key v] is the field [key] of an [Obj], else [None]. *)
val member : string -> t -> t option

(** [to_int v] is [Some i] when [v] is a [Num] holding an integer of
    magnitude at most 2{^53} — the range in which every integer is a
    float — and [None] otherwise.  Job specs, objectives, checkpoints,
    traces and protocol requests read their integer fields through it:
    [int_of_float] past the [int] range is unspecified, so an unchecked
    conversion would wrap a value like [1e19] silently. *)
val to_int : t -> int option

(** [to_string v] is the compact (single-line) serialisation of [v];
    JSONL-safe — never contains an unescaped newline. *)
val to_string : t -> string

(** [of_string s] parses one complete JSON document.  A number whose
    magnitude overflows a float (such as [1e999]) is an [Error]
    ("number out of range at offset ..."), never an infinite [Num]. *)
val of_string : string -> (t, string) result
