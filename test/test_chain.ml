(* Chain-layer tests: miner packing policy, block state transition, header
   hashing. *)

open State

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int
let addr i = Address.of_int (0x500 + i)

let cand ?(heard = 0.0) sender nonce price : Chain.Packer.candidate =
  let tx : Evm.Env.tx =
    {
      sender;
      to_ = Some (addr 99);
      nonce;
      value = U256.zero;
      data = "";
      gas_limit = 21_000;
      gas_price = u (price * 1_000_000_000);
    }
  in
  { tx; hash = Evm.Env.tx_hash tx; heard_at = heard }

(* the packed block's transactions *)
let pack policy ~next_nonce ~spendable cands =
  List.map
    (fun (c : Chain.Packer.candidate) -> c.tx)
    (Chain.Packer.pack policy ~next_nonce ~spendable cands)

let policy ?(gas_limit = 1_000_000) ?(seed = 1) ?self () : Chain.Packer.policy =
  { self; gas_limit; rng = Random.State.make [| seed |] }

let rich _ = U256.of_string "1000000000000000000"
let zero_nonce _ = 0

let packer_tests =
  [ t "orders by gas price descending" (fun () ->
        let c1 = cand (addr 1) 0 50 and c2 = cand (addr 2) 0 100 and c3 = cand (addr 3) 0 80 in
        let packed =
          pack (policy ()) ~next_nonce:zero_nonce ~spendable:rich [ c1; c2; c3 ]
        in
        Alcotest.(check (list int))
          "price order" [ 100; 80; 50 ]
          (List.map
             (fun (tx : Evm.Env.tx) ->
               U256.to_int_exn (U256.div tx.gas_price (u 1_000_000_000)))
             packed));
    t "same-price ties broken by miner rng" (fun () ->
        let cands = List.init 10 (fun i -> cand (addr i) 0 80) in
        let p1 =
          pack (policy ~seed:1 ()) ~next_nonce:zero_nonce ~spendable:rich cands
        in
        let p2 =
          pack (policy ~seed:2 ()) ~next_nonce:zero_nonce ~spendable:rich cands
        in
        Alcotest.(check int) "all packed" 10 (List.length p1);
        Alcotest.(check bool) "different order across miners" true
          (List.map (fun (tx : Evm.Env.tx) -> tx.sender) p1
          <> List.map (fun (tx : Evm.Env.tx) -> tx.sender) p2));
    t "same miner is deterministic" (fun () ->
        let cands = List.init 8 (fun i -> cand (addr i) 0 80) in
        let p1 =
          pack (policy ~seed:7 ()) ~next_nonce:zero_nonce ~spendable:rich cands
        in
        let p2 =
          pack (policy ~seed:7 ()) ~next_nonce:zero_nonce ~spendable:rich cands
        in
        Alcotest.(check bool) "same order" true (p1 = p2));
    t "nonce sequencing within a sender" (fun () ->
        (* higher-priced nonce-1 must still come after nonce-0 *)
        let c0 = cand (addr 1) 0 50 and c1 = cand (addr 1) 1 120 in
        let packed =
          pack (policy ()) ~next_nonce:zero_nonce ~spendable:rich [ c0; c1 ]
        in
        Alcotest.(check (list int)) "nonce order" [ 0; 1 ]
          (List.map (fun (tx : Evm.Env.tx) -> tx.nonce) packed));
    t "nonce gap defers the later tx" (fun () ->
        let c2 = cand (addr 1) 2 200 in
        let packed =
          pack (policy ()) ~next_nonce:zero_nonce ~spendable:rich [ c2 ]
        in
        Alcotest.(check int) "not packed" 0 (List.length packed));
    t "gas limit caps the block" (fun () ->
        let cands = List.init 10 (fun i -> cand (addr i) 0 80) in
        let packed =
          pack (policy ~gas_limit:50_000 ()) ~next_nonce:zero_nonce
            ~spendable:rich cands
        in
        Alcotest.(check int) "two fit" 2 (List.length packed));
    t "balance floor excludes paupers" (fun () ->
        let spendable a = if Address.equal a (addr 1) then U256.zero else rich a in
        let packed =
          pack (policy ()) ~next_nonce:zero_nonce ~spendable
            [ cand (addr 1) 0 300; cand (addr 2) 0 50 ]
        in
        Alcotest.(check int) "only the funded one" 1 (List.length packed));
    t "self transactions first" (fun () ->
        let mine = addr 5 in
        let packed =
          pack
            (policy ~self:mine ())
            ~next_nonce:zero_nonce ~spendable:rich
            [ cand (addr 1) 0 500; cand mine 0 10 ]
        in
        match packed with
        | first :: _ -> Alcotest.(check bool) "own tx first" true (Address.equal first.sender mine)
        | [] -> Alcotest.fail "nothing packed")
  ]

let block_tests =
  [ t "apply_block produces the canonical root and receipts" (fun () ->
        let bk = Statedb.Backend.create () in
        let st = Statedb.create bk ~root:Statedb.empty_root in
        let a = addr 1 and b = addr 2 in
        Statedb.set_balance st a (U256.of_string "1000000000000000000");
        let root0 = Statedb.commit st in
        let tx : Evm.Env.tx =
          { sender = a; to_ = Some b; nonce = 0; value = u 5; data = ""; gas_limit = 21_000;
            gas_price = u 1 }
        in
        let header : Chain.Block.header =
          {
            number = 1L;
            parent_hash = String.make 32 '\000';
            coinbase = addr 9;
            timestamp = 1000L;
            gas_limit = 1_000_000;
            difficulty = u 1;
            state_root = "";
            tx_root = Chain.Block.tx_root [ Evm.Env.tx_hash tx ];
          }
        in
        let st1 = Statedb.create bk ~root:root0 in
        let result =
          Chain.Stf.apply_block st1 ~block_hash:(fun _ -> U256.zero)
            { header; txs = [ tx ] }
        in
        Alcotest.(check int) "gas used" 21_000 result.gas_used;
        Alcotest.(check int) "one receipt" 1 (List.length result.receipts);
        (* replay on a fresh statedb gives the same root *)
        let st2 = Statedb.create bk ~root:root0 in
        let again =
          Chain.Stf.apply_block st2 ~block_hash:(fun _ -> U256.zero)
            { header; txs = [ tx ] }
        in
        Alcotest.(check string) "deterministic root"
          (Khash.Keccak.to_hex result.state_root)
          (Khash.Keccak.to_hex again.state_root));
    t "apply_block rejects invalid txs" (fun () ->
        let bk = Statedb.Backend.create () in
        let st = Statedb.create bk ~root:Statedb.empty_root in
        let tx : Evm.Env.tx =
          { sender = addr 1; to_ = Some (addr 2); nonce = 5; value = U256.zero; data = "";
            gas_limit = 21_000; gas_price = u 1 }
        in
        let header : Chain.Block.header =
          {
            number = 1L; parent_hash = ""; coinbase = addr 9; timestamp = 1L;
            gas_limit = 1_000_000; difficulty = u 1; state_root = ""; tx_root = "";
          }
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Chain.Stf.apply_block st ~block_hash:(fun _ -> U256.zero) { header; txs = [ tx ] });
             false
           with Invalid_argument _ -> true));
    t "block hash covers the header" (fun () ->
        let header : Chain.Block.header =
          {
            number = 1L; parent_hash = String.make 32 'p'; coinbase = addr 1;
            timestamp = 42L; gas_limit = 1_000; difficulty = u 1;
            state_root = String.make 32 's'; tx_root = String.make 32 't';
          }
        in
        let b1 = { Chain.Block.header; txs = [] } in
        let b2 = { Chain.Block.header = { header with timestamp = 43L }; txs = [] } in
        Alcotest.(check bool) "different hash" true (Chain.Block.hash b1 <> Chain.Block.hash b2))
  ]

(* Appended after the other lists so the earlier cases keep their indices. *)
let full_block_tests =
  [ t "packing stops once the block is full" (fun () ->
        (* 1,000 distinct senders at distinct prices, room for 5: the walk
           must stop at the sixth candidate instead of checking the backlog *)
        let cands = List.init 1000 (fun i -> cand (addr i) 0 (2000 - i)) in
        let calls = ref 0 in
        let next_nonce _ =
          incr calls;
          0
        in
        let packed =
          pack (policy ~gas_limit:(5 * 21_000) ()) ~next_nonce ~spendable:rich cands
        in
        Alcotest.(check (list int)) "the five best-priced senders, in price order"
          [ 2000; 1999; 1998; 1997; 1996 ]
          (List.map
             (fun (tx : Evm.Env.tx) ->
               Option.get (U256.to_int_opt tx.gas_price) / 1_000_000_000)
             packed);
        Alcotest.(check bool)
          (Printf.sprintf "%d next_nonce calls for 5 included <= 10" !calls)
          true (!calls <= 10)) ]

let suite = packer_tests @ block_tests @ full_block_tests
