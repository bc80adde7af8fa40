(* Network-simulator tests: the event heap, traffic generation, deterministic
   recording, and the structural properties of the observer feed the paper's
   recorder would capture. *)

let t name f = Alcotest.test_case name `Quick f

let small_params =
  { Netsim.Sim.default_params with duration = 90.0; tx_rate = 6.0; seed = 11; n_users = 60 }

(* a fork-heavy mix: every other block height is contested *)
let fork_params = { small_params with duration = 300.0; p_fork = 0.5; seed = 99; tx_rate = 3.0 }

let heap_tests =
  [ t "heap pops in time order" (fun () ->
        let h = Netsim.Heap.create () in
        List.iter (fun x -> Netsim.Heap.push h x x) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
        let rec drain acc =
          match Netsim.Heap.pop h with Some (t, _) -> drain (t :: acc) | None -> List.rev acc
        in
        Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (drain []));
    t "heap is FIFO for equal times" (fun () ->
        let h = Netsim.Heap.create () in
        List.iter (fun v -> Netsim.Heap.push h 1.0 v) [ 1; 2; 3 ];
        let rec drain acc =
          match Netsim.Heap.pop h with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
        in
        Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] (drain []));
    t "heap grows" (fun () ->
        let h = Netsim.Heap.create () in
        for i = 1000 downto 1 do
          Netsim.Heap.push h (float_of_int i) i
        done;
        match Netsim.Heap.pop h with
        | Some (_, 1) -> ()
        | _ -> Alcotest.fail "expected min element");
    t "heap survives draining to empty and reuse" (fun () ->
        let h = Netsim.Heap.create () in
        Alcotest.(check bool) "fresh heap empty" true (Netsim.Heap.is_empty h);
        Alcotest.(check bool) "pop on empty" true (Netsim.Heap.pop h = None);
        for round = 1 to 3 do
          Netsim.Heap.push h 2.0 (round * 10);
          Netsim.Heap.push h 1.0 round;
          (match Netsim.Heap.pop h with
          | Some (1.0, v) -> Alcotest.(check int) "min first" round v
          | _ -> Alcotest.fail "expected the earlier event");
          (match Netsim.Heap.pop h with
          | Some (2.0, v) -> Alcotest.(check int) "then max" (round * 10) v
          | _ -> Alcotest.fail "expected the later event");
          Alcotest.(check bool) "drained" true (Netsim.Heap.is_empty h)
        done);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"heap push/pop equals stable sort"
         QCheck.(list (pair (int_range 0 15) small_nat))
         (fun pairs ->
           (* payloads carry the insertion index, so equal-time events must
              come back in FIFO order (stable for equal keys) *)
           let h = Netsim.Heap.create () in
           List.iteri (fun i (time, v) -> Netsim.Heap.push h (float_of_int time) (i, v)) pairs;
           let rec drain acc =
             match Netsim.Heap.pop h with
             | Some (time, v) -> drain ((time, v) :: acc)
             | None -> List.rev acc
           in
           let expected =
             List.mapi (fun i (time, v) -> (float_of_int time, (i, v))) pairs
             |> List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
           in
           drain [] = expected))
  ]

let gen_tests =
  [ t "generator produces sequential nonces per sender" (fun () ->
        let pop = Workload.Population.make ~n_users:3 ~n_observers:2 in
        let g = Workload.Gen.create ~seed:3 ~tx_rate:1.0 pop in
        let seen : (string, int) Hashtbl.t = Hashtbl.create 8 in
        for _ = 1 to 200 do
          let tx, _ = Workload.Gen.generate g ~now:1_600_000_000L in
          let key = State.Address.to_hex tx.sender in
          let expected = match Hashtbl.find_opt seen key with Some n -> n + 1 | None -> 0 in
          Alcotest.(check int) "nonce sequence" expected tx.nonce;
          Hashtbl.replace seen key tx.nonce
        done);
    t "mix respects configured kinds" (fun () ->
        let pop = Workload.Population.make ~n_users:5 ~n_observers:2 in
        let g =
          Workload.Gen.create ~mix:[ (Workload.Gen.Eth_transfer, 1.0) ] ~seed:4 ~tx_rate:1.0 pop
        in
        for _ = 1 to 50 do
          let _, kind = Workload.Gen.generate g ~now:0L in
          Alcotest.(check string) "only transfers" "eth_transfer" (Workload.Gen.kind_name kind)
        done);
    t "interarrival times are positive with the right mean" (fun () ->
        let pop = Workload.Population.make ~n_users:2 ~n_observers:1 in
        let g = Workload.Gen.create ~seed:5 ~tx_rate:10.0 pop in
        let n = 2000 in
        let total = ref 0.0 in
        for _ = 1 to n do
          let d = Workload.Gen.next_interarrival g in
          Alcotest.(check bool) "positive" true (d > 0.0);
          total := !total +. d
        done;
        let mean = !total /. float_of_int n in
        Alcotest.(check bool) "mean ~ 1/rate" true (mean > 0.07 && mean < 0.14))
  ]

let sim_tests =
  [ t "same seed gives identical recordings" (fun () ->
        let r1 = Netsim.Sim.run ~params:small_params () in
        let r2 = Netsim.Sim.run ~params:small_params () in
        Alcotest.(check int) "same tx count" r1.n_txs r2.n_txs;
        Alcotest.(check int) "same block count" r1.n_blocks r2.n_blocks;
        Alcotest.(check int) "same event count" (Array.length r1.events) (Array.length r2.events);
        (* block contents identical *)
        let roots r =
          Array.to_list r.Netsim.Record.events
          |> List.filter_map (function
               | Netsim.Record.Block (_, b) -> Some b.Chain.Block.header.state_root
               | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> None)
        in
        Alcotest.(check bool) "same roots" true (roots r1 = roots r2));
    t "different seeds diverge" (fun () ->
        let r1 = Netsim.Sim.run ~params:small_params () in
        let r2 = Netsim.Sim.run ~params:{ small_params with seed = 12 } () in
        Alcotest.(check bool) "different" true (r1.n_txs <> r2.n_txs || r1.n_blocks <> r2.n_blocks));
    t "events are time ordered" (fun () ->
        let r = Netsim.Sim.run ~params:small_params () in
        let last = ref neg_infinity in
        Array.iter
          (fun ev ->
            let t = Netsim.Record.event_time ev in
            Alcotest.(check bool) "monotone" true (t >= !last);
            last := t)
          r.events);
    t "canonical numbers and timestamps increase" (fun () ->
        let r = Netsim.Sim.run ~params:small_params () in
        let last_n = ref 0L and last_ts = ref 0L in
        Array.iter
          (function
            | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical r b ->
              Alcotest.(check bool) "number" true (b.header.number > !last_n);
              Alcotest.(check bool) "timestamp" true (b.header.timestamp > !last_ts);
              last_n := b.header.number;
              last_ts := b.header.timestamp
            | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> ())
          r.events);
    t "per-sender nonces inside blocks are sequential" (fun () ->
        let r = Netsim.Sim.run ~params:small_params () in
        let next : (string, int) Hashtbl.t = Hashtbl.create 64 in
        Array.iter
          (function
            | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical r b ->
              List.iter
                (fun (tx : Evm.Env.tx) ->
                  let k = State.Address.to_hex tx.sender in
                  let expect = Option.value ~default:0 (Hashtbl.find_opt next k) in
                  Alcotest.(check int) "nonce" expect tx.nonce;
                  Hashtbl.replace next k (expect + 1))
                b.txs
            | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> ())
          r.events);
    t "no transaction is packed twice on the canonical chain" (fun () ->
        let r = Netsim.Sim.run ~params:small_params () in
        let seen = Hashtbl.create 256 in
        Array.iter
          (function
            | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical r b ->
              List.iter
                (fun tx ->
                  let h = Evm.Env.tx_hash tx in
                  Alcotest.(check bool) "fresh" false (Hashtbl.mem seen h);
                  Hashtbl.replace seen h ())
                b.txs
            | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> ())
          r.events);
    t "heard fraction is high but not total" (fun () ->
        let r = Netsim.Sim.run ~params:small_params () in
        let total, heard, _ = Netsim.Record.heard_stats r in
        let pct = 100.0 *. float_of_int heard /. float_of_int (max 1 total) in
        Alcotest.(check bool) "between 80 and 100" true (pct > 80.0 && pct <= 100.0));
    t "heard delays span multiple seconds" (fun () ->
        let r = Netsim.Sim.run ~params:small_params () in
        let _, _, delays = Netsim.Record.heard_stats r in
        Alcotest.(check bool) "some long waits" true (List.exists (fun d -> d > 4.0) delays));
    t "temporary forks appear at the configured rate" (fun () ->
        let params =
          { small_params with duration = 400.0; p_fork = 0.5; seed = 99; tx_rate = 3.0 }
        in
        let r = Netsim.Sim.run ~params () in
        Alcotest.(check bool) "some forks" true (r.n_fork_blocks > 0);
        Alcotest.(check bool) "forks below canonical count" true (r.n_fork_blocks < r.n_blocks);
        (* every non-canonical block shares a height with a canonical one *)
        let canon_heights = Hashtbl.create 64 in
        Array.iter
          (function
            | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical r b ->
              Hashtbl.replace canon_heights b.header.number ()
            | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> ())
          r.events;
        Array.iter
          (function
            | Netsim.Record.Block (_, b) when not (Netsim.Record.is_canonical r b) ->
              Alcotest.(check bool) "fork height contested" true
                (Hashtbl.mem canon_heights b.header.number)
            | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> ())
          r.events);
    t "forked replay validates all roots and counts side blocks" (fun () ->
        let r = Netsim.Sim.run ~params:fork_params () in
        let result = Core.Node.replay ~policy:Core.Node.Baseline r in
        List.iter
          (fun (b : Core.Node.block_record) -> Alcotest.(check bool) "root ok" true b.root_ok)
          result.blocks;
        Alcotest.(check bool) "side blocks processed" true (result.fork_blocks > 0));
    t "forerunner survives forks and reorgs" (fun () ->
        let r = Netsim.Sim.run ~params:fork_params () in
        let result = Core.Node.replay ~policy:Core.Node.Forerunner r in
        List.iter
          (fun (b : Core.Node.block_record) -> Alcotest.(check bool) "root ok" true b.root_ok)
          result.blocks);
    t "blocks respect the gas limit" (fun () ->
        let r = Netsim.Sim.run ~params:small_params () in
        Array.iter
          (function
            | Netsim.Record.Block (_, b) ->
              Alcotest.(check bool) "within limit" true
                (Chain.Block.gas_used_upper_bound b <= b.header.gas_limit)
            | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> ())
          r.events)
  ]

(* A keccak over the whole observer feed: every event's kind and time, each
   block's hash (which commits to its header, state root and tx root) and
   each heard transaction's hash.  Any drift in what the recorder emits —
   heard events, blocks, roots, forks — changes it. *)
let recording_digest (r : Netsim.Record.t) =
  let b = Buffer.create 65536 in
  Array.iter
    (function
      | Netsim.Record.Heard (t, tx) ->
        Buffer.add_string b (Printf.sprintf "H%h" t);
        Buffer.add_string b (Evm.Env.tx_hash tx)
      | Netsim.Record.Block (t, blk) ->
        Buffer.add_string b (Printf.sprintf "B%h" t);
        Buffer.add_string b (Chain.Block.hash blk)
      | Netsim.Record.Tick t -> Buffer.add_string b (Printf.sprintf "T%h" t))
    r.events;
  Khash.Keccak.digest_hex (Buffer.contents b)

(* The transfer recording of perfbench's parallel workload, at its
   smallest duration. *)
let transfer_params =
  {
    Netsim.Sim.default_params with
    seed = 7001;
    duration = 20.0;
    mean_block_interval = 4.0;
    tx_rate = 50.0;
    block_gas_limit = 100 * 21_000;
    n_users = 2000;
    mix = [ (Workload.Gen.Eth_transfer, 1.0) ];
  }

let golden_tests =
  let golden name params want =
    t ("golden recording: " ^ name) (fun () ->
        Alcotest.(check string) name want (recording_digest (Netsim.Sim.run ~params ())))
  in
  [ golden "defaults, 60 s" { Netsim.Sim.default_params with duration = 60.0 }
      "d480e82638260a2808bda26031fa4e87d11e3690a9d3c1bc44a54157f9105758";
    golden "perfbench transfer" transfer_params
      "e8a1b6eb1d5a0cbeefe2b567d26466ec20b47f989224d0af367a6502ba883eb4";
    golden "fork-heavy mix" fork_params
      "c564638e5d1f0e57f5150bf9f56a755d3b6f9830aa281d33200e0da6bf1d6103";
    t "the recorder hashes each transaction about once" (fun () ->
        (* each miner hearing a transaction, and each mined block, reads the
           hash computed when the transaction was generated *)
        let hashes = Obs.counter "evm.tx_hashes" in
        Obs.reset ();
        Obs.set_enabled true;
        let r =
          Fun.protect
            ~finally:(fun () -> Obs.set_enabled false)
            (fun () -> Netsim.Sim.run ~params:transfer_params ())
        in
        let generated = Hashtbl.length r.submit_times in
        let per_tx = float_of_int (Obs.count hashes) /. float_of_int generated in
        Alcotest.(check bool)
          (Printf.sprintf "%d hashes for %d generated txs (%.2f per tx) <= 2 per tx"
             (Obs.count hashes) generated per_tx)
          true (per_tx <= 2.0)) ]

let suite = heap_tests @ gen_tests @ sim_tests @ golden_tests
