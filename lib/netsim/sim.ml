(* The DiCE network simulator.

   It reproduces the three causes of Ethereum's many-future behaviour that
   the paper identifies (§4.2): (i) transactions gossip to each miner with
   different delays, so miners hold different pools; (ii) miners order
   same-price transactions with their own random tie-breaks and stamp blocks
   with their own skewed clocks; (iii) the winning miner is sampled
   probabilistically by hash power.  The observer node (the Forerunner node
   under test) hears transactions through the same gossip layer, sometimes
   late or never.

   Running a simulation produces a {!Record.t}: the exact observer feed the
   paper's recorder would capture, which the emulator then replays under
   different execution policies. *)

open State

type params = {
  seed : int;
  duration : float; (* simulated seconds *)
  tx_rate : float; (* transactions per second *)
  n_miners : int;
  mean_block_interval : float;
  block_gas_limit : int;
  gossip_delay_mean : float; (* tx propagation to miners *)
  observer_delay_mean : float; (* tx propagation to the observer *)
  p_never_heard : float; (* txs the observer never hears *)
  block_prop_delay : float;
  p_fork : float; (* probability a second miner solves the same height *)
  mix : Workload.Gen.mix;
  n_users : int;
  n_observers : int;
  start_time : float; (* epoch seconds; aligns oracle rounds *)
  tick_interval : float option;
      (* when set, emit [Record.Tick] every so many simulated seconds: the
         replay's hook for draining finished speculation between deliveries
         (a speculation budget per simulated tick) *)
}

let default_params =
  {
    seed = 1;
    duration = 600.0;
    tx_rate = 12.0;
    n_miners = 12;
    mean_block_interval = 13.0;
    block_gas_limit = 12_000_000;
    gossip_delay_mean = 0.5;
    observer_delay_mean = 0.6;
    p_never_heard = 0.03;
    block_prop_delay = 1.0;
    p_fork = 0.08;
    mix = Workload.Gen.default_mix;
    n_users = 200;
    n_observers = 8;
    start_time = 1_600_000_000.0;
    tick_interval = None;
  }

type ev = E_tx | E_block | E_miner_hear of int * Evm.Env.tx

type miner = {
  addr : Address.t;
  mutable pool : Chain.Packer.candidate list;
  clock_skew : int64;
  tie_rng : Random.State.t;
}

let exp_sample rng mean = -.mean *. log (1.0 -. Random.State.float rng 1.0)

let run ?(params = default_params) () : Record.t =
  let p = params in
  let rng = Random.State.make [| p.seed; 0x51A1 |] in
  let pop = Workload.Population.make ~n_users:p.n_users ~n_observers:p.n_observers in
  let bk = Statedb.Backend.create () in
  let genesis_root = Workload.Population.genesis pop bk in
  let st_canon = Statedb.create bk ~root:genesis_root in
  let gen =
    Workload.Gen.create ~mix:p.mix ~seed:p.seed ~tx_rate:p.tx_rate pop
  in
  let miners =
    Array.init p.n_miners (fun i ->
        {
          addr = Address.of_int (0x300000 + i);
          pool = [];
          clock_skew = Int64.of_int (Random.State.int rng 5 - 2);
          tie_rng = Random.State.make [| p.seed; i; 0x717E |];
        })
  in
  (* hash power ~ zipf: miner i has share 1/(i+1) *)
  let shares = Array.init p.n_miners (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total_share = Array.fold_left ( +. ) 0.0 shares in
  let pick_winner () =
    let x = Random.State.float rng total_share in
    let rec go i acc =
      if i = p.n_miners - 1 then i
      else if x < acc +. shares.(i) then i
      else go (i + 1) (acc +. shares.(i))
    in
    go 0 0.0
  in
  let q = Heap.create () in
  let events = ref [] in
  let submit_times = Hashtbl.create 4096 in
  let tx_kinds = Hashtbl.create 4096 in
  let included = Hashtbl.create 4096 in
  let canonical = Hashtbl.create 256 in
  let n_blocks = ref 0 in
  let n_fork_blocks = ref 0 in
  let n_txs = ref 0 in
  let genesis_hash = String.make 32 '\000' in
  let parent_hash = ref genesis_hash in
  let parent_root = ref genesis_root in
  let parent_ts = ref (Int64.of_float p.start_time) in
  let block_number = ref 0L in
  Heap.push q (exp_sample rng (1.0 /. p.tx_rate)) E_tx;
  Heap.push q (exp_sample rng p.mean_block_interval) E_block;
  let finished = ref false in
  while not (Heap.is_empty q) && not !finished do
    match Heap.pop q with
    | None -> finished := true
    | Some (t, ev) ->
      if t > p.duration then finished := true
      else begin
        match ev with
        | E_tx ->
          let now = Int64.of_float (p.start_time +. t) in
          let tx, kind = Workload.Gen.generate gen ~now in
          let h = Evm.Env.tx_hash tx in
          Hashtbl.replace submit_times h t;
          Hashtbl.replace tx_kinds h kind;
          (* gossip to miners *)
          Array.iteri
            (fun i _ ->
              Heap.push q (t +. exp_sample rng p.gossip_delay_mean) (E_miner_hear (i, tx)))
            miners;
          (* gossip to the observer *)
          if Random.State.float rng 1.0 >= p.p_never_heard then begin
            let th = t +. exp_sample rng p.observer_delay_mean in
            events := Record.Heard (th, tx) :: !events
          end;
          Heap.push q (t +. Workload.Gen.next_interarrival gen) E_tx
        | E_miner_hear (i, tx) ->
          if not (Hashtbl.mem included (Evm.Env.tx_hash tx)) then
            miners.(i).pool <- { Chain.Packer.tx; heard_at = t } :: miners.(i).pool
        | E_block ->
          (* Mine one block from the canonical tip, by a miner's own pool
             view; [on_state] chooses which Statedb the block executes on. *)
          let mine (w : miner) st =
            w.pool <-
              List.filter
                (fun (c : Chain.Packer.candidate) ->
                  not (Hashtbl.mem included (Evm.Env.tx_hash c.tx)))
                w.pool;
            let policy =
              { Chain.Packer.self = None; gas_limit = p.block_gas_limit; rng = w.tie_rng }
            in
            let txs =
              Chain.Packer.pack policy
                ~next_nonce:(fun a -> Statedb.get_nonce st a)
                ~spendable:(fun a -> Statedb.get_balance st a)
                w.pool
            in
            let ts =
              let claimed = Int64.add (Int64.of_float (p.start_time +. t)) w.clock_skew in
              if Int64.compare claimed (Int64.add !parent_ts 1L) < 0 then
                Int64.add !parent_ts 1L
              else claimed
            in
            let header_proto =
              {
                Chain.Block.number = Int64.add !block_number 1L;
                parent_hash = !parent_hash;
                coinbase = w.addr;
                timestamp = ts;
                gas_limit = p.block_gas_limit;
                difficulty = U256.of_int 1;
                state_root = "";
                tx_root = Chain.Block.tx_root txs;
              }
            in
            let block_proto = { Chain.Block.header = header_proto; txs } in
            let result =
              Chain.Stf.apply_block st ~block_hash:Record.block_hash block_proto
            in
            { block_proto with header = { header_proto with state_root = result.state_root } }
          in
          let w1 = pick_winner () in
          let block_a = mine miners.(w1) st_canon in
          (* With probability p_fork a second miner solves the same height
             nearly simultaneously — a temporary fork, one of the paper's
             directly observable futures. *)
          let fork =
            if Random.State.float rng 1.0 < p.p_fork && p.n_miners > 1 then begin
              let w2 = (w1 + 1 + Random.State.int rng (p.n_miners - 1)) mod p.n_miners in
              let st_side = Statedb.create bk ~root:!parent_root in
              Some (mine miners.(w2) st_side)
            end
            else None
          in
          (* first-mined block wins the race for the next height *)
          let winner, loser = (block_a, fork) in
          Hashtbl.replace canonical (Chain.Block.hash winner) ();
          List.iter
            (fun tx -> Hashtbl.replace included (Evm.Env.tx_hash tx) ())
            winner.txs;
          parent_hash := Chain.Block.hash winner;
          parent_root := winner.header.state_root;
          parent_ts := winner.header.timestamp;
          block_number := winner.header.number;
          incr n_blocks;
          n_txs := !n_txs + List.length winner.txs;
          (* arrival order at the observer is a coin flip when both exist *)
          let d1 = p.block_prop_delay +. Random.State.float rng 0.4 in
          events := Record.Block (t +. d1, winner) :: !events;
          (match loser with
          | Some b ->
            incr n_fork_blocks;
            let d2 = p.block_prop_delay +. Random.State.float rng 0.8 in
            events := Record.Block (t +. d2, b) :: !events
          | None -> ());
          Heap.push q (t +. exp_sample rng p.mean_block_interval) E_block
      end
  done;
  (match p.tick_interval with
  | Some dt when dt > 0.0 ->
    let t = ref dt in
    while !t < p.duration do
      events := Record.Tick !t :: !events;
      t := !t +. dt
    done
  | Some _ | None -> ());
  let arr = Array.of_list !events in
  Array.sort (fun a b -> compare (Record.event_time a) (Record.event_time b)) arr;
  {
    Record.events = arr;
    backend = bk;
    genesis_root;
    genesis_hash;
    n_blocks = !n_blocks;
    n_fork_blocks = !n_fork_blocks;
    n_txs = !n_txs;
    canonical;
    submit_times;
    tx_kinds;
  }
