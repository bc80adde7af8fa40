(** Parallel-speculation benchmark: replay the same recorded traffic under
    the Forerunner policy with [jobs = 1] and [jobs = N] and compare —
    speculation throughput should scale with workers while every
    speculation-visible result (per-tx outcomes, gas, block roots) stays
    identical.

    The comparison also measures conflict-aware {e parallel block apply}
    ({!Chain.Stf.apply_txs_parallel}) on three pure-workload recordings:
    disjoint ETH transfers (barely any conflicts), AMM swaps against one
    pair (serialized on the reserves: conflicts galore) and the default
    mix.  Each block's parallel state root is checked byte-identical to the
    sequential apply and to the miner's header root. *)

type run_stats = {
  jobs : int;
  replay_wall_ns : int;
  speculated : int;  (** speculation jobs completed *)
  spec_txs_per_sec : float;  (** completed jobs per replay wall second *)
  hit_rate_pct : float;  (** AP hits among heard transactions *)
  perfect : int;
  imperfect : int;
  missed : int;
  unheard : int;
  cancelled : int;
  merged : int;
  deduped : int;  (** redundant submissions skipped by the dedupe memo *)
  high_water : int;
}

type par_workload = {
  pw_name : string;  (** ["transfer"], ["amm"] or ["mixed"] *)
  pw_jobs : int;
  pw_static : bool;  (** lib/bca static pre-partitioning enabled *)
  pw_blocks : int;
  pw_txs : int;
  pw_aborted : int;  (** commits aborted on read/write conflicts *)
  pw_forced : int;  (** forced sequential reruns (coinbase patterns) *)
  pw_reruns : int;
  pw_static_serial : int;
      (** transactions the static partitioner kept out of speculation *)
  pw_ap_hits : int;  (** speculative executions through the AP fast path *)
  pw_abort_rate_pct : float;  (** (aborted + forced) / txs *)
  pw_seq_wall_ns : int;
  pw_par_wall_ns : int;
  pw_speedup : float;  (** sequential wall / parallel wall (needs cores) *)
  pw_roots_match : bool;  (** every root ≡ sequential ≡ header *)
}

type comparison = {
  seq : run_stats;  (** jobs = 1 *)
  par : run_stats;  (** jobs = N, barrier semantics *)
  throughput_ratio : float;  (** par.spec_txs_per_sec / seq.spec_txs_per_sec *)
  outcomes_match : bool;
      (** per-tx (hash, outcome, gas) sequences of [seq] and [par] are equal *)
  blocks_match : bool;
      (** per-block (number, root validated) sequences of [seq] and [par] *)
  parallel : par_workload list;  (** conflict-aware block apply, per workload *)
}

val run_parallel_blocks :
  ?with_ap:bool ->
  ?static_partition:bool ->
  jobs:int ->
  name:string ->
  Netsim.Record.t ->
  par_workload
(** Apply every canonical block of the recording sequentially and in
    parallel (jobs workers, APs pre-built per block unless
    [with_ap:false]), asserting root identity and accumulating
    abort/rerun/speedup numbers.  [static_partition] (default off)
    forwards to {!Chain.Stf.apply_txs_parallel}. *)

val parallel_suite :
  ?with_ap:bool -> ?scale:float -> jobs:int -> unit -> par_workload list
(** The transfer / amm / mixed workload sweep ([scale] shrinks the
    simulated duration like [FORERUNNER_SCALE]).  Each workload record is
    applied twice — static pre-partitioning off, then on — so the pair's
    abort/rerun counts are directly comparable on identical blocks. *)

val compare_jobs :
  ?config:Node.config -> ?par_suite:bool -> jobs:int -> Netsim.Record.t -> comparison
(** [config] defaults to {!Node.default_config}; its [jobs] field is
    overridden per run.  [par_suite] (default true) also runs
    {!parallel_suite} and fills [comparison.parallel]. *)

val print : comparison -> unit
(** Human-readable comparison table on stdout. *)

val to_json : comparison -> string
(** The full comparison as one JSON object, opening with the shared
    artifact header ({!meta_header}, experiment ["sched"]). *)

val schema_version : int
(** Version stamp every BENCH_*.json artifact opens with; bump on any
    incompatible field change in any artifact. *)

val meta_header : ?extra:(string * string) list -> experiment:string -> unit -> string
(** The shared run-metadata fields (no surrounding braces):
    [schema_version], [experiment], the active fork name, then any
    [extra] key/value pairs (values must already be JSON-encoded). *)

val validate_header : experiment:string -> string -> (unit, string) result
(** Check that the file at the given path opens with the exact
    {!meta_header} prefix for [experiment]. *)

val at_repo_root : string -> string
(** Resolve a filename against the repo root (nearest ancestor of the cwd
    with a [dune-project]); falls back to the name itself outside a repo. *)

val write_json : file:string -> comparison -> unit
