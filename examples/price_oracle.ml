(* The paper's running example (§4.2): transaction Tx_e submits a price to
   the PriceFeed oracle; we pre-execute it in four future contexts FC1..FC4,
   merge the synthesized paths into one Accelerated Program, and then watch
   the merged AP handle actual contexts that match none of them exactly.

     dune exec examples/price_oracle.exe *)

open State

let u = U256.of_int
let alice = Address.of_int 0xA11CE (* "UserA_Addr" *)
let bob = Address.of_int 0xB0B
let feed = Address.of_int 0xFEED (* "PriceFeed_Addr" *)
let round_id = 3_990_300

let benv ~ts : Evm.Env.block_env =
  {
    coinbase = Address.of_int 0xC01;
    timestamp = ts;
    number = 1000L;
    difficulty = U256.one;
    gas_limit = 12_000_000;
    chain_id = 1;
    block_hash = (fun n -> U256.of_int64 n);
  }

let () =
  let bk = Statedb.Backend.create () in
  let st0 = Statedb.create bk ~root:Statedb.empty_root in
  List.iter
    (fun a -> Statedb.set_balance st0 a (U256.of_string "1000000000000000000000"))
    [ alice; bob ];
  Contracts.Deploy.install_code st0 feed Contracts.Pricefeed.code;
  (* an earlier round is active, as in the paper's FC4 *)
  Statedb.set_storage st0 feed U256.zero (u 3_990_000);
  let root = Statedb.commit st0 in

  (* Tx_e: submit(roundID=3990300, price=1980) *)
  let tx_e : Evm.Env.tx =
    {
      sender = alice;
      to_ = Some feed;
      nonce = 0;
      value = U256.zero;
      data = Contracts.Pricefeed.submit_call ~round_id ~price:1980;
      gas_limit = 500_000;
      gas_price = u 80;
    }
  in
  let bob_submit price : Evm.Env.tx =
    {
      sender = bob;
      to_ = Some feed;
      nonce = 0;
      value = U256.zero;
      data = Contracts.Pricefeed.submit_call ~round_id ~price;
      gas_limit = 500_000;
      gas_price = u 80;
    }
  in

  let speculate env pre_txs =
    let st = Statedb.create bk ~root in
    List.iter (fun t -> ignore (Evm.Processor.execute_tx st env t)) pre_txs;
    let snap = Statedb.snapshot st in
    let sink, get = Evm.Trace.collector () in
    let receipt = Evm.Processor.execute_tx ~trace:sink st env tx_e in
    Statedb.revert st snap;
    match Sevm.Builder.build tx_e env (get ()) receipt st with
    | Ok p -> p
    | Error e -> failwith e
  in

  (* The four futures of Fig. 5: FC1/FC2 at ts=3990462 with different
     interleavings, FC3 at ts=3990478, FC4 alone at ts=3990478 (new round). *)
  let fc1 = speculate (benv ~ts:3_990_462L) [ bob_submit 2000 ] in
  let fc2 = speculate (benv ~ts:3_990_462L) [ bob_submit 2010 ] in
  let fc3 = speculate (benv ~ts:3_990_478L) [ bob_submit 2000 ] in
  let fc4 = speculate (benv ~ts:3_990_478L) [] in

  Printf.printf "FC1 path (aggregate branch, like paper Fig. 8):\n";
  Fmt.pr "%a@." Sevm.Ir.pp_path fc1;
  Printf.printf "FC4 path (new-round branch, like paper Fig. 9):\n";
  Fmt.pr "%a@." Sevm.Ir.pp_path fc4;

  let ap = Ap.Program.create () in
  List.iter (Ap.Program.add_path ap) [ fc1; fc2; fc3; fc4 ];
  Printf.printf
    "merged AP (like paper Fig. 10): %d distinct paths, %d shortcuts, %d instrs\n\n"
    ap.n_paths ap.shortcut_count
    (Ap.Program.instr_count ap);

  (* Try actual contexts. *)
  let try_ctx label env pre_txs =
    let st = Statedb.create bk ~root in
    List.iter (fun t -> ignore (Evm.Processor.execute_tx st env t)) pre_txs;
    match Ap.Exec.execute ap st env tx_e with
    | Ap.Exec.Hit (r, stats) ->
      Printf.printf "%-42s HIT   gas=%-6d exec=%2d skip=%2d  latestPrice -> %s\n" label
        r.gas_used stats.executed stats.skipped
        (U256.to_decimal (Statedb.get_storage st feed
                            (Khash.Keccak.digest_u256
                               (U256.to_bytes_be (u round_id) ^ U256.to_bytes_be U256.one))))
    | Ap.Exec.Violation -> Printf.printf "%-42s VIOLATION -> full EVM fallback\n" label
  in
  try_ctx "FC1 exactly (perfect prediction)" (benv ~ts:3_990_462L) [ bob_submit 2000 ];
  try_ctx "new timestamp, same round (imperfect)" (benv ~ts:3_990_555L) [ bob_submit 2000 ];
  try_ctx "unseen price 2123 (imperfect, same path)" (benv ~ts:3_990_462L) [ bob_submit 2123 ];
  try_ctx "no prior submission (FC4 branch)" (benv ~ts:3_990_499L) [];
  try_ctx "two prior submissions (same path as FC1)" (benv ~ts:3_990_462L)
    [ bob_submit 2000; { (bob_submit 2050) with nonce = 1 } ];
  try_ctx "timestamp in the NEXT round (violation)" (benv ~ts:3_990_600L) [ bob_submit 2000 ]
