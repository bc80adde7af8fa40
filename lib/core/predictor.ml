(* The multi-future predictor (paper §4.4): next-block prediction plus
   context construction.

   Next-block prediction follows the miners' incentives: higher gas price is
   packed earlier, so the pending transactions that can precede a target in
   its block are the inter-dependent ones with a higher (or tied) price.
   Block metadata is predicted from simple statistics: the next timestamp is
   the head's plus sampled recent intervals, the coinbase is drawn from the
   observed miner frequency table.  Context construction groups dependent
   transactions and enumerates plausible orderings, erring on the side of
   recall (several contexts per transaction). *)

open State

type pending = { tx : Evm.Env.tx; hash : string; heard_at : float }

type t = {
  mutable head_number : int64;
  mutable head_timestamp : int64;
  mutable head_gas_limit : int;
  coinbase_freq : int Address.Tbl.t;
  mutable intervals : int list; (* recent block intervals, seconds *)
  rng : Random.State.t;
}

let create ~seed =
  {
    head_number = 0L;
    head_timestamp = 0L;
    head_gas_limit = 12_000_000;
    coinbase_freq = Address.Tbl.create 16;
    intervals = [];
    rng = Random.State.make [| seed; 0x9ED1 |];
  }

(* Feed chain observations to the statistics. *)
let observe_block t (b : Chain.Block.t) =
  let prev_ts = t.head_timestamp in
  t.head_number <- b.header.number;
  t.head_gas_limit <- b.header.gas_limit;
  if Int64.compare prev_ts 0L > 0 then begin
    let d = Int64.to_int (Int64.sub b.header.timestamp prev_ts) in
    t.intervals <- d :: (if List.length t.intervals > 32 then List.filteri (fun i _ -> i < 31) t.intervals else t.intervals)
  end;
  t.head_timestamp <- b.header.timestamp;
  Address.Tbl.replace t.coinbase_freq b.header.coinbase
    (1 + match Address.Tbl.find_opt t.coinbase_freq b.header.coinbase with Some n -> n | None -> 0)

(* Most-frequently-observed miners, descending. *)
let top_coinbases t ~n =
  let all = Address.Tbl.fold (fun a c acc -> (a, c) :: acc) t.coinbase_freq [] in
  let sorted = List.sort (fun (_, c1) (_, c2) -> compare c2 c1) all in
  let top = List.filteri (fun i _ -> i < n) (List.map fst sorted) in
  if top = [] then [ Address.of_int 0x300000 ] else top

let mean_interval t =
  match t.intervals with
  | [] -> 13
  | l -> max 1 (List.fold_left ( + ) 0 l / List.length l)

(* Predicted block environments for the next block, most likely first: the
   head timestamp advanced by sampled recent intervals, crossed with the
   most probable miners. *)
let predict_envs t ~n : Evm.Env.block_env list =
  let mk cb delta =
    {
      Evm.Env.coinbase = cb;
      timestamp = Int64.add t.head_timestamp (Int64.of_int delta);
      number = Int64.add t.head_number 1L;
      difficulty = U256.of_int 1;
      gas_limit = t.head_gas_limit;
      chain_id = 1;
      block_hash = Netsim.Record.block_hash;
    }
  in
  let m = mean_interval t in
  let cbs = top_coinbases t ~n:3 in
  let cb1 = List.hd cbs in
  let combos =
    List.map (fun cb -> (cb, m)) cbs
    @ [ (cb1, max 1 (m / 3)); (cb1, 2 * m); (cb1, 3 * m) ]
  in
  List.filteri (fun i _ -> i < n) (List.map (fun (cb, d) -> mk cb d) combos)

(* Transactions from [pool] that can interfere with [tx]'s context: those a
   miner is likely to order before it (same contract or same sender, gas
   price not lower), plus all lower-nonce transactions from the same sender
   (which MUST precede it). *)
let dependency_group ~pool ~tx_hash (tx : Evm.Env.tx) =
  let interferes (p : pending) =
    (not (String.equal p.hash tx_hash))
    && (Address.equal p.tx.sender tx.sender
       ||
       match (p.tx.to_, tx.to_) with
       | Some a, Some b -> Address.equal a b
       | (Some _ | None), _ -> false)
  in
  let required, optional =
    List.partition
      (fun (p : pending) ->
        Address.equal p.tx.sender tx.sender && p.tx.nonce < tx.nonce)
      (List.filter interferes pool)
  in
  let optional =
    List.filter (fun (p : pending) -> U256.ge p.tx.gas_price tx.gas_price) optional
  in
  (* keep the group small: the highest-priced interferers *)
  let optional =
    List.sort (fun (a : pending) b -> U256.compare b.tx.gas_price a.tx.gas_price) optional
  in
  let optional = List.filteri (fun i _ -> i < 6) optional in
  (required, optional)

let price_order txs =
  List.sort
    (fun (a : pending) (b : pending) ->
      let c = U256.compare b.tx.gas_price a.tx.gas_price in
      if c <> 0 then c else compare a.heard_at b.heard_at)
    txs

(* Orderings of the txs that might execute before [tx] in its block.  The
   required (same-sender lower-nonce) txs are always included, nonce-sorted
   up front. *)
let orderings t ~required ~optional ~n =
  let req = List.sort (fun (a : pending) b -> compare a.tx.nonce b.tx.nonce) required in
  let base l = req @ l in
  let shuffle l =
    let arr = Array.of_list l in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int t.rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list arr
  in
  let cands =
    [ base (price_order optional); base []; base (shuffle optional);
      base (shuffle optional) ]
  in
  (* dedupe *)
  let seen = Hashtbl.create 8 in
  let uniq =
    List.filter
      (fun c ->
        let key = String.concat "" (List.map (fun (p : pending) -> p.hash) c) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      cands
  in
  List.filteri (fun i _ -> i < n) (List.map (List.map (fun (p : pending) -> p.tx)) uniq)

let obs_requests = Obs.counter "predictor.context_requests"
let obs_contexts = Obs.counter "predictor.contexts_predicted"

(* Construct up to [max_contexts] (env, preceding-txs) futures. *)
let contexts t ~pool ~max_contexts ~tx_hash tx =
  Obs.incr obs_requests;
  let required, optional = dependency_group ~pool ~tx_hash tx in
  let envs = predict_envs t ~n:4 in
  let ords = orderings t ~required ~optional ~n:2 in
  let all =
    match envs with
    | [] -> []
    | primary_env :: other_envs ->
      (* primary env with every ordering, then other envs with the primary
         ordering *)
      List.map (fun o -> (primary_env, o)) ords
      @ List.map
          (fun e -> (e, match ords with o :: _ -> o | [] -> []))
          other_envs
  in
  let picked = List.filteri (fun i _ -> i < max_contexts) all in
  Obs.add obs_contexts (List.length picked);
  picked
