(* Airdrop-storm traffic: a crowd of distinct senders all calling
   `transfer(to, amount)` on one ERC-20 contract.  Every transaction is
   structurally identical — same target, selector, calldata length and
   value zeroness — so the whole storm maps to a single lib/apstore
   template key while the caller-varying fields (sender, recipient,
   amount, nonce, gas price, gas limit) exercise the template's lifted
   input registers.

   Gas limits are deliberately heterogeneous: with gas accounting lifted
   into input registers (and the ERC-20 free of GAS opcodes, so lib/bca
   lets the key drop the gas pins), and a transfer that makes no call (so
   the builder guards the exact envelope, the path's execution charge),
   one template traced at any level serves every level.  Recipients are drawn
   with all-nonzero address bytes so the template's sender/recipient
   balance-slot aliasing guards stay satisfied, and amounts keep the
   branch-relevant amount word nonzero (its zeroness is key-pinned). *)

open State

type t = {
  senders : Address.t array;
  token : Address.t;
  rng : Random.State.t;
  nonces : int Address.Tbl.t;
  mutable cursor : int; (* round-robin sender index *)
}

let sender_base = 0x500000

let gas_limit_levels = [| 60_000; 66_000; 72_000; 84_000 |]

let create ?(n_senders = 256) ~seed ~token () =
  {
    senders = Array.init n_senders (fun i -> Address.of_int (sender_base + i));
    token;
    rng = Random.State.make [| seed; 0xA12D |];
    nonces = Address.Tbl.create (max 16 n_senders);
    cursor = 0;
  }

let ether = U256.of_string "1000000000000000000"

(* Build the genesis state for a standalone storm: the token contract plus
   ETH and token balances for every sender; returns the committed root. *)
let genesis t bk =
  let st = Statedb.create bk ~root:Statedb.empty_root in
  Contracts.Deploy.install_code st t.token Contracts.Erc20.code;
  Array.iter
    (fun s ->
      Statedb.set_balance st s (U256.mul (U256.of_int 100) ether);
      Contracts.Deploy.seed_erc20_balance st ~token:t.token ~owner:s
        ~amount:(U256.of_int 10_000_000))
    t.senders;
  Statedb.commit st

(* Seed the senders into an already-populated state (composes with
   [Population.genesis], whose token0/token1 the storm can then target). *)
let fund t st =
  Array.iter
    (fun s ->
      Statedb.set_balance st s (U256.mul (U256.of_int 100) ether);
      Contracts.Deploy.seed_erc20_balance st ~token:t.token ~owner:s
        ~amount:(U256.of_int 10_000_000))
    t.senders

(* A recipient whose 20 address bytes are all nonzero; never collides with
   the [of_int]-shaped sender addresses (those embed zero bytes), so the
   template's sender/recipient balance-slot aliasing guards stay satisfied. *)
let fresh_recipient t =
  Address.of_bytes (String.init 20 (fun _ -> Char.chr (1 + Random.State.int t.rng 255)))

(* Exactly two nonzero bytes, both in the low word. *)
let fresh_amount t =
  U256.of_int (((1 + Random.State.int t.rng 255) * 256) + 1 + Random.State.int t.rng 255)

let gas_price_levels = [| 50; 60; 60; 80; 80; 100; 100; 120 |]

let next_nonce t sender =
  let n = match Address.Tbl.find_opt t.nonces sender with Some n -> n | None -> 0 in
  Address.Tbl.replace t.nonces sender (n + 1);
  n

let tx t : Evm.Env.tx =
  let sender = t.senders.(t.cursor mod Array.length t.senders) in
  t.cursor <- t.cursor + 1;
  {
    Evm.Env.sender;
    to_ = Some t.token;
    nonce = next_nonce t sender;
    value = U256.zero;
    data = Contracts.Erc20.transfer_call ~to_:(fresh_recipient t) ~amount:(fresh_amount t);
    gas_limit = gas_limit_levels.(Random.State.int t.rng (Array.length gas_limit_levels));
    gas_price =
      U256.of_int
        (1_000_000_000
        * gas_price_levels.(Random.State.int t.rng (Array.length gas_price_levels)));
  }
