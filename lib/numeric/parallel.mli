(** Every numeric kernel runs on the calling domain; jobs run
    concurrently on the scheduler's worker domains instead (HACKING.md,
    "Performance & parallelism"). *)

(** [set_num_domains n] does nothing.  It stays only because the
    perfbench replay (perfbench/tool.ml) calls it, and goes with that
    replay in ROADMAP item 3's [benchmark] PR. *)
val set_num_domains : int -> unit
