(** Reusable domain pool for data-parallel numeric kernels.

    The pool is created lazily on first parallel call and reused across
    the whole Kraftwerk hot loop.  Its size is, in priority order: the
    last {!set_num_domains} value, the [KRAFTWERK_DOMAINS] environment
    variable, then [Domain.recommended_domain_count ()].  With size 1 no
    domain is ever spawned and every combinator runs sequentially on the
    caller, bitwise-identical to the historical single-core code.

    Determinism: combinators hand tasks {e disjoint} index ranges whose
    boundaries do not depend on which domain runs what, and no
    floating-point reduction is reassociated, so for task bodies that
    write disjoint locations (all in-tree users) results are
    bitwise-identical for {e any} domain count.

    Nesting is supported: a task may itself call any combinator here.  A
    caller waiting for its batch helps drain the shared task queue, so
    nested batches cannot deadlock. *)

(** Current lane budget for the {e calling domain}: the {!with_lanes}
    pin when one is active, otherwise the process-wide pool size.  Does
    not spawn domains: before first use this reports the size the pool
    {e would} have. *)
val num_domains : unit -> int

(** [with_lanes n f] runs [f ()] with this domain's lane budget pinned
    to [n] (clamped to [1..128]), without touching the process-wide pool
    or other domains.  With [n = 1] every combinator called inside [f]
    runs sequentially on the caller — this is how a sharded scheduler
    worker executes one job per domain while other workers do the same
    concurrently.  With [n > 1] combinators chunk for [n] lanes and
    submit to the shared pool (nested use from a worker domain is safe:
    submitters help drain the queue).  Results are bitwise-identical for
    any [n].  Restores the previous budget on exit, even on exceptions.
    Raises [Invalid_argument] when [n < 1]. *)
val with_lanes : int -> (unit -> 'a) -> 'a

(** Largest pool size or lane budget honoured (128); larger requests
    are clamped to it. *)
val max_domains : int

(** [set_num_domains n] fixes the pool size to [n] (clamped to
    [1..128]), overriding [KRAFTWERK_DOMAINS].  Tears down a live pool
    of a different size; the next parallel call respawns lazily.  Must
    not be called while parallel work is in flight.  Raises
    [Invalid_argument] when [n < 1]. *)
val set_num_domains : int -> unit

(** Drop any {!set_num_domains} override and tear the pool down; the
    next use re-reads [KRAFTWERK_DOMAINS] / the hardware default. *)
val reset : unit -> unit

(** Join all worker domains and drop the pool.  Safe to call when no
    pool exists.  Subsequent parallel calls respawn lazily. *)
val shutdown : unit -> unit

(** [parallel_range ?chunk ?work ~lo ~hi body] covers [\[lo, hi)] with
    disjoint sub-ranges of at most [chunk] indices (default: range split
    four ways per domain) and calls [body a b] for each sub-range
    [\[a, b)], in parallel across the pool.  Falls back to a single
    sequential [body lo hi] when the pool has one domain, only one chunk
    results, or the estimated [work] (caller-supplied scalar-operation
    count, e.g. the nnz of a SpMV) is below the internal cutoff where
    batch overhead would dominate.  The fallback runs the same body over
    the whole range, so results are bitwise-identical. *)
val parallel_range :
  ?chunk:int -> ?work:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
