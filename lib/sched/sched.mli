(** The speculation scheduler: a pool of OCaml 5 worker domains draining a
    bounded priority {!Workq} of speculation jobs and publishing results
    through a lock-free {!Mailbox}.

    The design centres on determinism.  Jobs are keyed by transaction hash;
    jobs submitted for the same hash are {e chained} — they run on one
    worker, in submission order, never concurrently — so a job may safely
    mutate per-transaction state (the tx's accumulating AP/spec record).
    Jobs for distinct hashes touch disjoint state and may run in any
    interleaving; {!drain} returns results sorted by submission sequence,
    so the order in which the caller {e applies} results is independent of
    worker timing.  With [jobs = 1] no domains are spawned at all and every
    job runs inline at {!submit} — byte-identical to the sequential code
    path, which is what the tier-1 tests and the fuzzer pin.

    The producer side is single-threaded: {!submit}, {!drain}, {!barrier},
    {!forget} and {!shutdown} must all be called from the
    domain that called {!create} (in this codebase, the node's replay
    loop).  Worker domains never call back into the scheduler API. *)

module Workq : module type of Workq
(** The bounded priority work queue (re-exported for its property tests). *)

module Mailbox : module type of Mailbox
(** The lock-free result mailbox (re-exported likewise). *)

type 'r t

type 'r result = {
  r_seq : int;  (** submission sequence number, 0-based *)
  r_hash : string;  (** the [~hash] the job was submitted under *)
  r_value : ('r, exn) Stdlib.result;  (** [Error e] if the job raised [e] *)
}

type stats = {
  jobs : int;
  submitted : int;
  completed : int;  (** results published (inline or by a worker) *)
  merged : int;  (** submissions chained behind existing work for the same hash *)
  deduped : int;  (** submissions skipped: identical [dedupe_key] already live *)
  queued : int;  (** jobs currently waiting (snapshot) *)
  running : int;  (** jobs currently executing (snapshot) *)
  high_water : int;  (** max depth the work queue ever reached *)
}

val create : ?capacity:int -> jobs:int -> unit -> 'r t
(** Spawn [jobs] worker domains ([jobs = 1] spawns none: inline mode).
    [capacity] bounds the work queue (default 4096); a full queue blocks
    {!submit} until workers catch up. *)

val jobs : 'r t -> int

val submit :
  ?dedupe_key:string ->
  'r t ->
  hash:string ->
  priority:U256.t ->
  (unit -> 'r) ->
  unit
(** Enqueue a job.  [priority] orders dispatch (higher first — predicted
    inclusion order, i.e. gas price).  Blocks when the queue is at
    capacity.  In inline mode the job runs before [submit] returns.

    [dedupe_key] is a fingerprint of the work (e.g. state root + speculated
    contexts): when it equals the key of the hash's latest live submission,
    that job's result is already in the {!Mailbox} (or on its way), so this
    submission is skipped entirely — counted as [deduped], no result
    published.  The decision depends only on the submission history (never
    on worker timing), so jobs=1 and jobs=N dedupe identically.  {!forget}
    drops a hash's key; keyless submissions never dedupe and clear the
    key.  Callers that need one result per submit (the parallel block
    commit) must not pass [dedupe_key]. *)

val drain : 'r t -> 'r result list
(** Take every published result, sorted by submission sequence.  Does not
    wait — use {!barrier} first to collect everything outstanding. *)

val barrier : 'r t -> unit
(** Block until no job is queued or running.  On return the workers are all
    parked in the queue's pop wait — quiescent — so the caller may safely
    write shared backend state (e.g. commit a block's trie nodes) before
    submitting again.  No-op in inline mode. *)

val forget : 'r t -> string list -> unit
(** Drop the dedupe-memo entries for these hashes, without touching any
    queued or running work.  The memo otherwise grows monotonically (one
    entry per tx hash ever submitted), so the node calls this at block
    commit for the hashes it retires (included or stale), bounding it to
    the live pending set.  Safe in both modes and identical across job
    counts (pure bookkeeping), so it preserves jobs=1 ≡ jobs=N parity.  Forgetting a hash that later resubmits
    merely costs one redundant speculation; it never changes results. *)

val memo_size : 'r t -> int
(** Number of entries currently in the dedupe memo (for the bound's
    regression test and leak diagnosis). *)

val stats : 'r t -> stats

val empty_stats : stats
(** All-zero stats with [jobs = 1] (for synthetic results in tests). *)

val shutdown : 'r t -> unit
(** Finish all queued work, join the worker domains.  Idempotent; the
    scheduler must not be used afterwards (except {!drain}/{!stats}). *)
