(** The process's one parallelism substrate: a fixed set of worker
    domains that every parallel map in the program draws from — the fault
    simulator's block deal and compaction's speculative rounds and waves,
    for every request a daemon has in flight.

    The workers ({!size} of them) are spawned on the first parallel
    {!map} and live until the process exits.  A submission cannot
    deadlock, whatever the worker count and whoever submits: the calling
    domain runs slot 0 itself and takes back its own unclaimed slots
    while it waits, so concurrent submitters and submissions nested
    inside a slot all complete. *)

(** Worker domains in the pool: one less than
    [Domain.recommended_domain_count ()], at least 1.  Fixed for the
    process; no argument of {!map} changes it. *)
val size : int

(** [map ~jobs n f] evaluates [f 0 .. f (n-1)] and returns the results in
    index order.  With [jobs <= 1] (or [n <= 1]) the calls run in order on
    the calling domain; otherwise the [n] slots are spread over the
    calling domain and the pool's workers, so [f] must be safe to call
    concurrently on distinct indices.  [jobs] only chooses parallel or
    sequential; it never sets how many domains exist.  Results are
    independent of [jobs] and of scheduling whenever each [f k] is
    deterministic.  If any slot raises, every slot still finishes, and
    then the exception of the lowest failing index is re-raised with its
    backtrace. *)
val map : jobs:int -> int -> (int -> 'a) -> 'a array
