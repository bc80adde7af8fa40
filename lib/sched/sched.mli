(** The speculation scheduler: a fork-join batch of speculation jobs.

    The design centres on determinism.  Jobs are keyed by transaction hash;
    jobs submitted for the same hash are {e chained} — they run on one
    domain, in submission order, never concurrently — so a job may safely
    mutate per-transaction state (the tx's accumulating AP/spec record).
    Jobs for distinct hashes touch disjoint state and may run in any
    interleaving; {!drain} returns results in submission sequence, so the
    order in which the caller {e applies} results is independent of worker
    timing.

    With [jobs = 1] every job runs inline at {!submit} — byte-identical to
    the sequential code path, which is what the tier-1 tests and the fuzzer
    pin.  With [jobs > 1] {!submit} only records the job; {!barrier} runs
    the pending batch on up to [jobs] domains — the caller's and helpers
    spawned for that call — and joins the helpers before it returns, so
    no domain outlives a barrier.

    Every call must come from the domain that called {!create} (in this
    codebase, the node's replay loop); jobs never call back into the
    scheduler. *)

type 'r t

type 'r result = {
  r_seq : int;  (** submission sequence number, 0-based *)
  r_hash : string;  (** the [~hash] the job was submitted under *)
  r_value : ('r, exn) Stdlib.result;  (** [Error e] if the job raised [e] *)
}

type stats = {
  jobs : int;
  submitted : int;
  completed : int;  (** jobs run (inline or in a batch) *)
  deduped : int;  (** submissions skipped: identical [dedupe_key] already live *)
  high_water : int;  (** largest batch ever pending; 0 with [jobs = 1] *)
}

val create : jobs:int -> unit -> 'r t
(** A scheduler that runs batches on up to [jobs] domains.  Spawns
    nothing: domains live only inside {!barrier}. *)

val jobs : 'r t -> int

val submit : ?dedupe_key:string -> 'r t -> hash:string -> (unit -> 'r) -> unit
(** Record a job.  With [jobs = 1] it runs before [submit] returns.  With
    [jobs > 1] it waits for the next {!barrier}; a batch that reaches 4096
    jobs runs at once, which bounds the memory pending work holds.

    [dedupe_key] is a fingerprint of the work (e.g. state root + speculated
    contexts): when it equals the key of the hash's latest live submission,
    that job's result is already published (or will be at the next
    barrier), so this submission is skipped entirely — counted as
    [deduped], no result published.  The decision depends only on the
    submission history, so jobs=1 and jobs=N dedupe identically.
    {!forget} drops a hash's key; keyless submissions never dedupe and
    clear the key.  Callers that need one result per submit (the parallel
    block commit) must not pass [dedupe_key]. *)

val drain : 'r t -> 'r result list
(** Take every published result, in submission sequence.  Does not run
    pending jobs — call {!barrier} first to collect everything. *)

val barrier : 'r t -> unit
(** Run every pending job and join the helper domains.  On return
    no job is running, so the caller may safely write shared backend
    state (e.g. commit a block's trie nodes) before submitting again.
    No-op with [jobs = 1], where nothing is ever pending. *)

val forget : 'r t -> string list -> unit
(** Drop the dedupe-memo entries for these hashes, without touching any
    pending work.  The memo otherwise grows monotonically (one entry per
    tx hash ever submitted), so the node calls this at block commit for
    the hashes it retires (included or stale), bounding it to the live
    pending set.  Pure bookkeeping, identical across job counts, so it
    preserves jobs=1 ≡ jobs=N parity.  Forgetting a hash that later
    resubmits merely costs one redundant speculation; it never changes
    results. *)

val memo_size : 'r t -> int
(** Number of entries currently in the dedupe memo (for the bound's
    regression test and leak diagnosis). *)

val stats : 'r t -> stats

val empty_stats : stats
(** All-zero stats with [jobs = 1] (for synthetic results in tests). *)
