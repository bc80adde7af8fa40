(* What the paper's recorder captures (§5.1): everything an Ethereum node
   observes, with precise timings — pending transactions as they are heard
   and blocks as they arrive.  A recording replays deterministically, so the
   same traffic can be re-run under different execution policies. *)

type obs_event =
  | Heard of float * Evm.Env.tx  (** pending transaction heard at sim time *)
  | Block of float * Chain.Block.t  (** block received at sim time *)
  | Tick of float
      (** periodic idle point (speculation budget boundary): replay may
          collect finished speculation work here, between deliveries *)

type t = {
  events : obs_event array;  (** time-ordered observer feed *)
  backend : State.Statedb.Backend.t;
      (** the shared node store — the emulator's "copy of the local
          blockchain database" (paper §5.1) *)
  genesis_root : string;  (** world state the chain starts from *)
  genesis_hash : string;  (** parent hash of block 1 *)
  n_blocks : int;  (** canonical blocks *)
  n_fork_blocks : int;  (** blocks on temporary forks (paper: ~8.4%) *)
  n_txs : int;  (** transactions packed into canonical blocks *)
  canonical : (string, unit) Hashtbl.t;  (** canonical block hashes *)
  submit_times : (string, float) Hashtbl.t;  (** tx hash -> submission time *)
  tx_kinds : (string, Workload.Gen.kind) Hashtbl.t;
}

let block_hash n = U256.of_int64 n

let is_canonical r b = Hashtbl.mem r.canonical (Chain.Block.hash b)

let event_time = function Heard (t, _) -> t | Block (t, _) -> t | Tick t -> t

(* Fraction of packed transactions heard before their block arrived, plus
   the heard-delay samples (block arrival - hear time) for Fig. 11. *)
let heard_stats r =
  let heard_at = Hashtbl.create 1024 in
  let total = ref 0 and heard = ref 0 in
  let delays = ref [] in
  Array.iter
    (fun ev ->
      match ev with
      | Heard (t, tx) ->
        let h = Evm.Env.tx_hash tx in
        if not (Hashtbl.mem heard_at h) then Hashtbl.replace heard_at h t
      | Block (t, b) ->
        if is_canonical r b then
          List.iter
            (fun tx ->
              incr total;
              match Hashtbl.find_opt heard_at (Evm.Env.tx_hash tx) with
              | Some th when th <= t ->
                incr heard;
                delays := (t -. th) :: !delays
              | Some _ | None -> ())
            b.txs
      | Tick _ -> ())
    r.events;
  (!total, !heard, !delays)
