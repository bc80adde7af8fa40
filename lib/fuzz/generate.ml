(* Random scenario generation.  All randomness flows through an explicit
   [Random.State.t]; {!seeded} derives one per iteration from
   (seed, iteration), so any failing scenario is reproducible from the CLI
   seed alone. *)

let int = Random.State.int

(* Words biased toward the interesting range: small constants collide with
   slot numbers, scratch indices and loop bounds; occasional full-width
   words exercise 256-bit arithmetic edge cases. *)
let word rng : U256.t =
  match int rng 10 with
  | 0 | 1 | 2 | 3 -> U256.of_int (int rng 16)
  | 4 | 5 -> U256.of_int (int rng 1024)
  | 6 -> U256.sub U256.zero (U256.of_int (1 + int rng 16)) (* 2^256 - k *)
  | 7 -> U256.shift_left U256.one (int rng 256)
  | _ ->
    let b = Bytes.init 32 (fun _ -> Char.chr (int rng 256)) in
    U256.of_bytes_be (Bytes.to_string b)

let scratch rng = int rng Scenario.n_scratch
let slot rng = int rng Scenario.n_slots

let rec gadget ~depth ~n_contracts rng : Scenario.gadget =
  let open Scenario in
  (* weights: state access and calls dominate; control flow only above
     depth 0 is flattened (bodies are straight-line below depth 2). *)
  let pick = int rng (if depth < 2 then 21 else 18) in
  match pick with
  | 0 -> G_set (scratch rng, word rng)
  | 1 -> G_calldata (scratch rng, int rng 96)
  | 2 -> G_calldatacopy (scratch rng, int rng 64, int rng 48)
  | 3 | 4 -> G_arith (int rng (Array.length arith_pool), scratch rng, scratch rng, scratch rng, scratch rng)
  | 5 | 6 -> G_sload (scratch rng, slot rng)
  | 7 | 8 -> G_sstore (slot rng, scratch rng)
  | 9 -> G_sstore_dyn (scratch rng, scratch rng)
  | 10 -> G_incr (slot rng, 1 + int rng 7)
  | 11 -> G_mstore8 (int rng 256, scratch rng)
  | 12 -> G_sha3 (scratch rng, 1 + int rng 96)
  | 13 -> G_balance (scratch rng, int rng n_contracts)
  | 14 -> G_log (int rng 3, scratch rng)
  | 15 ->
    G_call
      ( int rng 3 = 0 (* 1/3 STATICCALL *),
        int rng n_contracts,
        (if int rng 4 = 0 then 1 + int rng 1000 else 0),
        scratch rng, scratch rng )
  | 16 -> G_returndata (scratch rng)
  | 17 -> if int rng 6 = 0 then G_revert (int rng 65) else G_stop
  | 18 ->
    G_if
      ( scratch rng, word rng,
        body ~depth:(depth + 1) ~n_contracts ~len:(1 + int rng 3) rng,
        body ~depth:(depth + 1) ~n_contracts ~len:(int rng 3) rng )
  | 19 | _ -> G_loop (1 + int rng 6, body ~depth:(depth + 1) ~n_contracts ~len:(1 + int rng 3) rng)

and body ~depth ~n_contracts ~len rng =
  List.init len (fun _ -> gadget ~depth ~n_contracts rng)

let contract ~n_contracts rng : Scenario.contract =
  { body = body ~depth:0 ~n_contracts ~len:(2 + int rng 7) rng }

let tx_spec ~n_contracts rng : Scenario.tx_spec =
  {
    sender = int rng Scenario.n_senders;
    target = int rng n_contracts;
    value = (if int rng 4 = 0 then U256.of_int (int rng 10_000) else U256.zero);
    data =
      (let len = [| 0; 4; 32; 68; 100 |].(int rng 5) in
       String.init len (fun _ -> Char.chr (int rng 256)));
    gas = (if int rng 8 = 0 then 30_000 + int rng 40_000 else 600_000);
  }

let scenario rng : Scenario.t =
  let n_contracts = 2 + int rng (Scenario.max_contracts - 1) in
  {
    contracts = List.init n_contracts (fun _ -> contract ~n_contracts rng);
    storage =
      List.concat
        (List.init n_contracts (fun ci ->
             List.filter_map
               (fun sl -> if int rng 2 = 0 then Some (ci, sl, word rng) else None)
               (List.init Scenario.n_slots Fun.id)));
    balances =
      List.filter_map
        (fun ci -> if int rng 3 = 0 then Some (ci, U256.of_int (int rng 1_000_000)) else None)
        (List.init n_contracts Fun.id);
    txs = List.init (2 + int rng 5) (fun _ -> tx_spec ~n_contracts rng);
    (* every scenario runs under a uniformly random hardfork, so the
       oracle lanes are an N-fork differential matrix for free *)
    fork = Some (List.nth Spec.all_forks (int rng Spec.n_forks));
  }

(* Scenario [iter] of a seeded run: reseeded from (seed, iter), so any
   iteration reproduces in isolation no matter what ran before. *)
let seeded ~seed iter = scenario (Random.State.make [| 0xF0E2; seed; iter |])
