(** The text scanner of {!Io} and {!Bookshelf}: an input read in large
    chunks and walked by index.  Lines and fields are index ranges
    [[a, b)] into the chunk; nothing is split into token lists, and
    numbers are read in place ({!Numtext.scan_float},
    {!Numtext.float_of_sub}, {!Numtext.int_of_sub}). *)

(** [iter_lines ic f] reads the rest of [ic] (seekable or not: a pipe
    reads as a file does) and calls [f text line a b] for every line,
    numbered from 1, as [input_line] splits them: at each ['\n'], with a
    last line that lacks one included and no empty line after a final
    ['\n'].  [[a, b)] indexes the line in [text] with [String.trim]'s
    whitespace removed from both ends.  [text] is a window onto a 64 KiB
    buffer (wider for a longer line) that the next read overwrites: it
    is valid only during the call, and [f] keeps nothing of it but
    copies. *)
val iter_lines : in_channel -> (string -> int -> int -> int -> unit) -> unit

(** [find s k b c] is the index of the first [c] in [s.[k .. b-1]], or
    [b].  Raises [Invalid_argument] unless [0 <= k] and
    [b <= String.length s]. *)
val find : string -> int -> int -> char -> int

(** [equals s a b word] is [String.sub s a (b - a) = word], without the
    copy.  Raises [Invalid_argument] unless [0 <= a] and
    [b <= String.length s]. *)
val equals : string -> int -> int -> string -> bool
