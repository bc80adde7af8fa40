(* Miner packing policy (paper §4.4): order pending transactions by gas
   price, break ties randomly (each miner has its own RNG, so ties resolve
   differently across miners — one of the many-future causes), optionally
   prioritize the miner's own transactions, enforce per-sender nonce order,
   and fill the block up to the gas limit.

   Validity here is nonce sequencing + a balance floor; the caller supplies
   both from the canonical state.  Full execution happens in {!Stf}. *)

open State

type candidate = { tx : Evm.Env.tx; hash : string; heard_at : float }

type policy = {
  self : Address.t option; (* miner's own sender address to prioritize *)
  gas_limit : int;
  rng : Random.State.t;
}

(* Stable sort: higher gas price first; same-price order is a random shuffle
   (geth orders same-price transactions randomly, paper footnote 8). *)
let order policy candidates =
  let decorated =
    List.map (fun c -> (c, Random.State.bits policy.rng)) candidates
  in
  let cmp ((a : candidate), ra) ((b : candidate), rb) =
    let self_rank (c : candidate) =
      match policy.self with Some s when Address.equal s c.tx.sender -> 0 | _ -> 1
    in
    let c = compare (self_rank a) (self_rank b) in
    if c <> 0 then c
    else
      let c = U256.compare b.tx.gas_price a.tx.gas_price in
      if c <> 0 then c else compare ra rb
  in
  List.map fst (List.sort cmp decorated)

(* Pack a block's transaction list.  [next_nonce sender] and
   [spendable sender] reflect the canonical state at the parent block. *)
let pack policy ~next_nonce ~spendable candidates =
  let ordered = order policy candidates in
  let nonces = Address.Tbl.create 32 in
  let budgets = Address.Tbl.create 32 in
  let gas_left = ref policy.gas_limit in
  let deferred = Address.Tbl.create 8 in
  (* same-sender txs with future nonces wait for their predecessors *)
  let included = ref [] in
  (* Once the gas left is below every candidate's gas limit nothing more
     fits, so the walk stops there; [order] has already drawn every
     candidate's tie-break, so the miner's rng stream does not depend on
     where it stops. *)
  let min_gas =
    List.fold_left (fun m (c : candidate) -> min m c.tx.gas_limit) max_int candidates
  in
  let try_include (c : candidate) =
    let tx = c.tx in
    let expected =
      match Address.Tbl.find_opt nonces tx.sender with
      | Some n -> n
      | None -> next_nonce tx.sender
    in
    let budget =
      match Address.Tbl.find_opt budgets tx.sender with
      | Some b -> b
      | None -> spendable tx.sender
    in
    let cost = Evm.Processor.upfront_cost tx in
    if tx.nonce = expected && tx.gas_limit <= !gas_left && U256.ge budget cost then begin
      Address.Tbl.replace nonces tx.sender (expected + 1);
      Address.Tbl.replace budgets tx.sender (U256.sub budget cost);
      gas_left := !gas_left - tx.gas_limit;
      included := c :: !included;
      true
    end
    else false
  in
  let rec walk = function
    | (c : candidate) :: rest when !gas_left >= min_gas ->
      if try_include c then begin
        (* pull in any deferred successors now unblocked *)
        let rec drain sender =
          match Address.Tbl.find_opt deferred sender with
          | Some waiting ->
            let expected = Address.Tbl.find nonces sender in
            let ready, still =
              List.partition (fun (c : candidate) -> c.tx.nonce = expected) waiting
            in
            Address.Tbl.replace deferred sender still;
            (match ready with
            | [ c ] -> if try_include c then drain sender
            | [] -> ()
            | _ :: _ :: _ -> ())
          | None -> ()
        in
        drain c.tx.sender
      end
      else if c.tx.nonce > (match Address.Tbl.find_opt nonces c.tx.sender with
                           | Some n -> n
                           | None -> next_nonce c.tx.sender) then
        Address.Tbl.replace deferred c.tx.sender
          (c
          :: (match Address.Tbl.find_opt deferred c.tx.sender with
             | Some l -> l
             | None -> []));
      walk rest
    | _ -> ()
  in
  walk ordered;
  List.rev !included
