(* Trace-based program specialization (paper Fig. 6).

   The builder replays a recorded EVM trace symbolically, performing in one
   pass: complex-instruction decomposition, stack-to-register SSA
   translation, register promotion (stack, memory, storage, environment),
   control-flow elimination, constant folding and CSE, and constraint
   generation (control guards at branch points, data guards on variable
   offsets/sizes/keys).  The output is a linear {!Ir.path}: a constraint
   section, a fast path, and a deferred write set — rollback-free by
   construction because all writes commit after the last guard.

   Top-level contract creations are built like calls (the init code runs
   as the top frame; deployed code and the new nonce join the write set).
   Traces with a nested CREATE/CREATE2 or a SELFDESTRUCT are rejected
   ([Unsupported]); such transactions run without an AP (still helped by
   prefetching), mirroring the paper's missed-prediction bucket.

   Representation.  The pass boxes nothing per byte, and moving stack
   operands (DUP, SWAP, POP) allocates nothing:
   - symbolic bytes (memory, call data, return data, frame output) are
     unboxed ints ({!Symmem}: a constant byte, or byte i of register r),
     and a frame's memory is one growable array of them;
   - the symbolic stack is one operand array shared by all frames, with a
     stack pointer; each frame owns the slots above its base, so a child
     frame's leftovers are dropped by resetting the pointer on exit;
   - instructions are appended to a growable array, which {!Opt.schedule}
     splits into the constraint section and the fast path;
   - CSE, the guards already emitted and the storage slot map are keyed
     monomorphically (operand and U256 equality, no polymorphic hash or
     compare over U256-bearing keys). *)

open State
module I = Ir

exception Unsupported of string

(* ---- symbolic world state (immutable, for snapshot/rollback) ---- *)

module AKey = Address.Map

type world = {
  storage : I.operand Slot.Map.t;
  storage_dirty : Slot.t list; (* newest first, may contain dups *)
  balances : I.operand AKey.t; (* symbolic balance of addresses read *)
  balance_dirty : unit AKey.t;
  deltas : (bool * I.operand) list AKey.t; (* (is_add, amount), unread addrs *)
  balance_traced : U256.t AKey.t; (* concrete balance during the pre-execution *)
  logs : (Address.t * I.operand list * I.piece list) list; (* newest first *)
}

let empty_world =
  {
    storage = Slot.Map.empty;
    storage_dirty = [];
    balances = AKey.empty;
    balance_dirty = AKey.empty;
    deltas = AKey.empty;
    balance_traced = AKey.empty;
    logs = [];
  }

(* ---- symbolic frames ---- *)

module M = Symmem

type frame = {
  ctx : Address.t;
  base : int; (* the frame's stack slots start here *)
  mem : M.t;
  calldata : M.src array;
  callvalue : I.operand;
  caller_word : I.operand;
  code : string;
  mutable retdata : M.src array;
  mutable result : M.src array;
  mutable ended : [ `Return | `Revert ] option;
  out_region : (int * int) option; (* where the parent wants the output *)
  snapshot : world; (* world before this frame's transfer *)
  transfer_in : (Address.t * Address.t * I.operand * U256.t) option;
      (* from, to, amount operand, traced amount — applied after snapshot *)
}

(* ---- builder context ---- *)

type cse_key =
  | K_compute of I.compute_op * I.operand array
  | K_keccak of I.piece list
  | K_sha256 of I.piece list
  | K_pack of I.piece list
  | K_read of I.read_src

module Cse = Hashtbl.Make (struct
  type t = cse_key

  let piece_equal a b =
    match (a, b) with
    | I.P_const s, I.P_const s' -> String.equal s s'
    | I.P_reg (r, o, l), I.P_reg (r', o', l') -> r = r' && o = o' && l = l'
    | I.P_const _, I.P_reg _ | I.P_reg _, I.P_const _ -> false

  let read_equal a b =
    match (a, b) with
    | I.R_timestamp, I.R_timestamp
    | I.R_number, I.R_number
    | I.R_coinbase, I.R_coinbase
    | I.R_difficulty, I.R_difficulty
    | I.R_gaslimit, I.R_gaslimit ->
      true
    | I.R_blockhash o, I.R_blockhash o'
    | I.R_balance o, I.R_balance o'
    | I.R_nonce_of o, I.R_nonce_of o'
    | I.R_extcodesize o, I.R_extcodesize o'
    | I.R_extcodehash o, I.R_extcodehash o' ->
      I.operand_equal o o'
    | I.R_nonce a, I.R_nonce a' -> Address.equal a a'
    | I.R_storage (a, k), I.R_storage (a', k') -> Address.equal a a' && U256.equal k k'
    | I.R_storage_dyn (a, o), I.R_storage_dyn (a', o') ->
      Address.equal a a' && I.operand_equal o o'
    | ( ( I.R_timestamp | I.R_number | I.R_coinbase | I.R_difficulty | I.R_gaslimit
        | I.R_blockhash _ | I.R_balance _ | I.R_nonce _ | I.R_nonce_of _ | I.R_storage _
        | I.R_storage_dyn _ | I.R_extcodesize _ | I.R_extcodehash _ ),
        _ ) ->
      false

  let equal a b =
    match (a, b) with
    | K_compute (op, args), K_compute (op', args') ->
      op == op'
      && Array.length args = Array.length args'
      && Array.for_all2 I.operand_equal args args'
    | K_keccak ps, K_keccak ps' | K_sha256 ps, K_sha256 ps' | K_pack ps, K_pack ps' ->
      List.equal piece_equal ps ps'
    | K_read s, K_read s' -> read_equal s s'
    | (K_compute _ | K_keccak _ | K_sha256 _ | K_pack _ | K_read _), _ -> false

  let mix h x = (h * 31) + x

  let operand_hash = function I.Reg r -> r | I.Const v -> U256.hash v

  let pieces_hash =
    List.fold_left
      (fun h -> function
        | I.P_const s -> mix h (Hashtbl.hash (s : string))
        | I.P_reg (r, o, l) -> mix h ((r lsl 10) lor (o lsl 5) lor l))
      0

  let read_hash = function
    | I.R_timestamp -> 1
    | I.R_number -> 2
    | I.R_coinbase -> 3
    | I.R_difficulty -> 4
    | I.R_gaslimit -> 5
    | I.R_blockhash o -> mix 6 (operand_hash o)
    | I.R_balance o -> mix 7 (operand_hash o)
    | I.R_nonce a -> mix 8 (Address.hash a)
    | I.R_nonce_of o -> mix 9 (operand_hash o)
    | I.R_storage (a, k) -> mix (mix 10 (Address.hash a)) (U256.hash k)
    | I.R_storage_dyn (a, o) -> mix (mix 11 (Address.hash a)) (operand_hash o)
    | I.R_extcodesize o -> mix 12 (operand_hash o)
    | I.R_extcodehash o -> mix 13 (operand_hash o)

  let hash k =
    (match k with
    | K_compute (op, args) ->
      let h = ref (I.compute_code op) in
      for i = 0 to Array.length args - 1 do
        h := mix !h (operand_hash args.(i))
      done;
      !h
    | K_keccak ps -> mix 1 (pieces_hash ps)
    | K_sha256 ps -> mix 2 (pieces_hash ps)
    | K_pack ps -> mix 3 (pieces_hash ps)
    | K_read src -> mix 4 (read_hash src))
    land max_int
end)

(* Template-lifting state (lib/apstore, DESIGN.md §13).  In template mode
   the caller-varying transaction fields — sender, value, nonce, gas price
   and the ABI calldata words past the selector — live in input registers
   seeded at execution time instead of being baked in as constants, so one
   specialization serves every structurally-equivalent transaction.  The
   tables below track what that lifting must additionally pin:

   - [t_skeys]: per-contract storage-key operands already seen, for the
     pairwise aliasing guards that keep the builder's traced-key slot map a
     faithful model under any serve-time binding;
   - [t_skey_first]: the operand that first named each traced slot, so the
     deferred write set can address it dynamically ([W_storage_dyn]);
   - [t_addr_reads]/[t_addr_ops]: same two roles for balance addresses. *)
type tmpl = {
  t_sender : I.reg;
  t_value : I.reg;
  t_nonce : I.reg;
  t_gasprice : I.reg;
  t_gaslimit : I.reg;
  t_intrinsic : I.reg; (* intrinsic gas of the served calldata *)
  t_gas_used : I.reg; (* served receipt's recomputed gas_used *)
  t_words : I.reg array; (* calldata word k = bytes [4+32k, 4+32k+32) *)
  t_inputs : I.input_src array;
  t_skeys : (I.operand * U256.t) list ref Address.Tbl.t;
  t_skey_first : I.operand Slot.Tbl.t;
  mutable t_addr_reads : (I.operand * U256.t) list;
  t_addr_ops : I.operand Address.Tbl.t;
}

(* entry-warmth locations: an account, or one of its storage slots *)
module WarmTbl = Hashtbl.Make (struct
  type t = Address.t * U256.t option

  let equal (a, k) (a', k') =
    Address.equal a a'
    &&
    match (k, k') with
    | None, None -> true
    | Some k, Some k' -> U256.equal k k'
    | None, Some _ | Some _, None -> false

  let hash (a, k) = match k with None -> Address.hash a | Some k -> Address.hash a lxor U256.hash k
end)

type t = {
  tx : Evm.Env.tx;
  pre : Statedb.t; (* state as of just before the traced execution *)
  spec : Spec.t; (* fork the trace ran under; stamped into the path *)
  prewarm : (Address.t * U256.t option) list; (* entry access-list hint *)
  mutable warm_touched : unit WarmTbl.t option;
      (* locations whose entry warmth is already pinned (first touch only);
         created at the first touch under an access-list spec *)
  mutable world : world;
  mutable instrs : I.instr array; (* emission order, [n_emitted] used *)
  mutable n_emitted : int;
  mutable next_reg : int;
  mutable reg_vals : U256.t array;
  mutable guarded : U256.t list array;
      (* per register, the values a Guard already pins it to *)
  cse : I.operand Cse.t;
  mutable tmpl : tmpl option; (* Some = template-lifting mode *)
  mutable frames : frame list; (* head = innermost *)
  mutable stack : I.operand array; (* all frames' symbolic stacks *)
  mutable sp : int;
  mutable bottom : int; (* the innermost frame's base *)
  (* stats *)
  mutable st_stack : int;
  mutable st_mem : int;
  mutable st_control : int;
  mutable st_state : int;
  mutable st_folded : int;
  mutable st_cse : int;
  mutable st_guards : int;
  mutable st_decomposed : int;
  mutable trace_len : int;
}

let create spec prewarm tx pre =
  {
    tx;
    pre;
    spec;
    prewarm;
    warm_touched = None;
    world = empty_world;
    instrs = [||];
    n_emitted = 0;
    next_reg = 0;
    reg_vals = Array.make 16 U256.zero;
    guarded = Array.make 16 [];
    cse = Cse.create 16;
    tmpl = None;
    frames = [];
    stack = [||];
    sp = 0;
    bottom = 0;
    st_stack = 0;
    st_mem = 0;
    st_control = 0;
    st_state = 0;
    st_folded = 0;
    st_cse = 0;
    st_guards = 0;
    st_decomposed = 0;
    trace_len = 0;
  }

let val_of b = function I.Const v -> v | I.Reg r -> b.reg_vals.(r)

(* [a] with room for at least [n + 1] elements, new slots filled with [x] *)
let grow a n x =
  if n < Array.length a then a
  else begin
    let a' = Array.make (if n < 8 then 16 else 2 * n) x in
    Array.blit a 0 a' 0 n;
    a'
  end

let fresh b v =
  let r = b.next_reg in
  b.next_reg <- r + 1;
  b.reg_vals <- grow b.reg_vals r U256.zero;
  b.guarded <- grow b.guarded r [];
  b.reg_vals.(r) <- v;
  r

let emit b ins =
  b.instrs <- grow b.instrs b.n_emitted ins;
  b.instrs.(b.n_emitted) <- ins;
  b.n_emitted <- b.n_emitted + 1

(* Allocate the template's input registers — they occupy v0..v(k-1), are
   defined by no instruction, and are seeded by [Ap.Exec.bind_inputs] from
   the transaction being served.  Build-time register values hold the
   speculated transaction's own fields, so symbolic/traced divergence
   checks work unchanged.

   Shapes a template cannot serve soundly are rejected up front: creations
   (the created address depends on the sender), precompile targets (their
   output is folded from concrete calldata), invalid receipts (the
   preamble guards assume a valid sender context), non-empty prewarm
   hints (warmth guards must pin the cold entry state every served
   transaction shares), traces that consumed their whole gas envelope
   (their gas_used is limit-dependent, not path-determined) and traces
   whose refund hit the cap (the raw counter cannot be recovered, so the
   served refund cannot be recomputed).

   Gas accounting is lifted, not pinned: the served limit and intrinsic
   charge live in input registers, the preamble guards the execution
   envelope (served limit - intrinsic), and the receipt's gas_used is
   recomputed per serve via [In_gas_used].  For a trace without calls or
   GAS the envelope need only cover the path's execution charge (the
   exact envelope, see [exact_envelope]), so a template traced at one
   limit serves every limit that can pay for its path; a trace with calls
   keeps the traced envelope (served limit - intrinsic >= traced limit -
   intrinsic).  GAS opcodes still bake the traced word as an unguarded
   constant — sound only when lib/apstore's key keeps such code fully
   pinned (lib/bca's uses-gas fact). *)
let init_template b (receipt : Evm.Processor.receipt) =
  let tx = b.tx in
  (match receipt.status with
  | Evm.Processor.Invalid _ -> raise (Unsupported "template: invalid transaction")
  | Evm.Processor.Success | Evm.Processor.Reverted -> ());
  (match tx.to_ with
  | None -> raise (Unsupported "template: contract creation")
  | Some target ->
    if Evm.Interp.precompile_of target <> None then
      raise (Unsupported "template: precompile target"));
  if b.prewarm <> [] then raise (Unsupported "template: prewarm hint");
  let inputs = ref [] in
  let mk src =
    inputs := src :: !inputs;
    fresh b U256.zero
  in
  let t_sender = mk I.In_sender in
  let t_value = mk I.In_value in
  let t_nonce = mk I.In_nonce in
  let t_gasprice = mk I.In_gas_price in
  let intrinsic = Spec.intrinsic_gas b.spec ~is_create:false tx.data in
  let g_refund = receipt.gas_refund in
  let pre_refund = receipt.gas_used + g_refund in
  if g_refund > pre_refund / b.spec.Spec.refund_cap_divisor then
    raise (Unsupported "template: refund-capped trace");
  if pre_refund >= tx.gas_limit then
    raise (Unsupported "template: all gas consumed");
  let t_gaslimit = mk I.In_gas_limit in
  let t_intrinsic = mk I.In_intrinsic_gas in
  let t_gas_used = mk (I.In_gas_used { g_exec = pre_refund - intrinsic; g_refund }) in
  let len = String.length tx.data in
  let n_words = if len > 4 then (len - 4 + 31) / 32 else 0 in
  let t_words = Array.init n_words (fun k -> mk (I.In_calldata_word k)) in
  let t_inputs = Array.of_list (List.rev !inputs) in
  (* traced register values: the serve-time binding applied to the traced
     transaction (the uncapped refund makes In_gas_used the traced charge) *)
  I.bind_inputs ~spec:b.spec tx t_inputs b.reg_vals;
  b.tmpl <-
    Some
      {
        t_sender;
        t_value;
        t_nonce;
        t_gasprice;
        t_gaslimit;
        t_intrinsic;
        t_gas_used;
        t_words;
        t_inputs;
        t_skeys = Address.Tbl.create 8;
        t_skey_first = Slot.Tbl.create 8;
        t_addr_reads = [];
        t_addr_ops = Address.Tbl.create 4;
      }

(* Emit (or fold / reuse) a compute instruction; [traced] is the concrete
   result observed during the pre-execution. *)
let compute b op args traced =
  if Array.for_all (function I.Const _ -> true | I.Reg _ -> false) args then begin
    let arg = I.arg_value b.reg_vals args in
    let folded = I.eval_compute op (arg 0) (arg 1) (arg 2) in
    if not (U256.equal folded traced) then
      raise (Unsupported "constant-fold mismatch (builder bug)");
    b.st_folded <- b.st_folded + 1;
    I.Const traced
  end
  else begin
    let key = K_compute (op, args) in
    match Cse.find_opt b.cse key with
    | Some op' ->
      b.st_cse <- b.st_cse + 1;
      op'
    | None ->
      let r = fresh b traced in
      emit b (I.Compute (r, op, args));
      Cse.add b.cse key (I.Reg r);
      I.Reg r
  end

(* Equality guard: no-op when the operand is already a constant. *)
let guard b op expected =
  match op with
  | I.Const v ->
    if not (U256.equal v expected) then raise (Unsupported "constant guard mismatch")
  | I.Reg r ->
    let seen = b.guarded.(r) in
    if not (List.exists (U256.equal expected) seen) then begin
      b.guarded.(r) <- expected :: seen;
      emit b (I.Guard (op, expected));
      b.st_guards <- b.st_guards + 1
    end

(* Truth guard for JUMPI conditions: accepts any non-zero value when the
   traced condition was non-zero (paper: guards check the branch decision,
   not the full word). *)
let guard_truth b op traced =
  match op with
  | I.Const v ->
    if U256.is_zero v <> U256.is_zero traced then
      raise (Unsupported "constant truth-guard mismatch")
  | I.Reg _ ->
    (* Always materialize ISZERO so traces taking either direction emit the
       same instruction stream up to the guard — the merged AP then branches
       on this one register (paper's dual-purpose guard nodes). *)
    let z = compute b I.C_iszero [| op |] (I.bool_word (U256.is_zero traced)) in
    guard b z (I.bool_word (U256.is_zero traced))

let guard_size b op traced =
  match op with
  | I.Const _ -> ()
  | I.Reg _ ->
    emit b (I.Guard_size (op, U256.byte_size traced));
    b.st_guards <- b.st_guards + 1

(* ---- entry-warmth constraints (access-list specs, DESIGN.md §12) ----

   The traced gas embeds one cold surcharge per location first touched
   cold, so the path is only valid in contexts with the same entry access
   list.  At an opcode's *first* touch of a location its warmth equals its
   entry warmth (later touches are warm in trace and replay alike), so one
   [Guard_warm] per location, emitted at first touch with the expected
   value from [Evm.Processor.entry_warm], pins exactly the state the gas
   depends on.  Replaying under a colder access list (e.g. built with a
   prewarm hint, replayed without) then violates instead of mis-charging. *)

(* Locations warm by construction on every replay of this transaction —
   the sender, the call target, a created contract's address — never vary
   across replays; a guard on them could only cause spurious fallbacks. *)
let entry_warm_invariant b (key : Address.t * U256.t option) =
  match key with
  | a, None -> (
    Address.equal a b.tx.sender
    ||
    match b.tx.to_ with
    | Some t -> Address.equal a t
    | None -> Address.equal a (Evm.Interp.create_address b.tx.sender b.tx.nonce))
  | _, Some _ -> false

let warm_guard b (key : Address.t * U256.t option) =
  if b.spec.Spec.has_access_lists then begin
    let touched =
      match b.warm_touched with
      | Some t -> t
      | None ->
        let t = WarmTbl.create 16 in
        b.warm_touched <- Some t;
        t
    in
    if not (WarmTbl.mem touched key) then begin
      WarmTbl.replace touched key ();
      if not (entry_warm_invariant b key) then begin
        emit b (I.Guard_warm (key, Evm.Processor.entry_warm b.tx b.prewarm key));
        b.st_guards <- b.st_guards + 1
      end
    end
  end

(* Environment reads are stable within a transaction: CSE promotes repeats. *)
let env_read b src traced =
  let key = K_read src in
  match Cse.find_opt b.cse key with
  | Some op ->
    b.st_state <- b.st_state + 1;
    op
  | None ->
    let r = fresh b traced in
    emit b (I.Read (r, src));
    Cse.add b.cse key (I.Reg r);
    I.Reg r

(* ---- storage model ---- *)

(* Pin a storage-key operand.  Outside template mode a variable key is
   guarded to its traced constant.  In template mode that would defeat
   reuse (ERC-20 balance slots are keccaks over the sender register), so
   instead the key's aliasing pattern against every other key operand of
   the same contract is pinned: the builder's slot map is keyed by traced
   values, and it models serve-time state faithfully exactly when equal
   traced keys stay equal and distinct traced keys stay distinct. *)
let pin_skey b addr key_op traced_key =
  match b.tmpl with
  | None -> guard b key_op traced_key
  | Some t ->
    (match key_op with
    | I.Const v ->
      if not (U256.equal v traced_key) then raise (Unsupported "constant guard mismatch")
    | I.Reg _ -> ());
    let seen =
      match Address.Tbl.find_opt t.t_skeys addr with
      | Some l -> l
      | None ->
        let l = ref [] in
        Address.Tbl.replace t.t_skeys addr l;
        l
    in
    if not (List.exists (fun (op', _) -> I.operand_equal op' key_op) !seen) then begin
      List.iter
        (fun (op', k') ->
          match (key_op, op') with
          | I.Const _, I.Const _ -> () (* constants never change aliasing *)
          | _ ->
            let equal = U256.equal traced_key k' in
            let e = compute b I.C_eq [| key_op; op' |] (I.bool_word equal) in
            guard b e (I.bool_word equal))
        !seen;
      seen := (key_op, traced_key) :: !seen
    end

(* Remember the operand that first named a traced slot so the deferred
   write set can address it the same way ([W_storage_dyn] for registers). *)
let skey_first_op b k key_op =
  match b.tmpl with
  | None -> ()
  | Some t ->
    if not (Slot.Tbl.mem t.t_skey_first k) then Slot.Tbl.replace t.t_skey_first k key_op

let sload b addr key_op traced_key traced_val =
  pin_skey b addr key_op traced_key;
  let k = (addr, traced_key) in
  skey_first_op b k key_op;
  match Slot.Map.find_opt k b.world.storage with
  | Some op ->
    b.st_state <- b.st_state + 1;
    op
  | None ->
    let r = fresh b traced_val in
    let src =
      match (b.tmpl, key_op) with
      | Some _, I.Reg _ -> I.R_storage_dyn (addr, key_op)
      | (None | Some _), _ -> I.R_storage (addr, traced_key)
    in
    emit b (I.Read (r, src));
    b.world <- { b.world with storage = Slot.Map.add k (I.Reg r) b.world.storage };
    I.Reg r

let sstore b addr key_op traced_key value_op =
  pin_skey b addr key_op traced_key;
  let k = (addr, traced_key) in
  skey_first_op b k key_op;
  b.world <-
    {
      b.world with
      storage = Slot.Map.add k value_op b.world.storage;
      storage_dirty = k :: b.world.storage_dirty;
    }

(* ---- balance model ---- *)

let traced_balance b addr =
  match AKey.find_opt addr b.world.balance_traced with
  | Some v -> v
  | None -> Statedb.get_balance b.pre addr

(* Current symbolic balance of [addr], reading it (pre-state value) if it
   has not been read yet and folding in any pending deltas.  [?addr_op]
   lets template mode read through a register (the sender input); the
   world's balance map is keyed by traced addresses, so in template mode
   every newly-read address is aliasing-guarded against the ones already
   read — delta-only addresses commute and need no guard. *)
let balance_read ?addr_op b addr =
  let k = addr in
  match AKey.find_opt k b.world.balances with
  | Some op ->
    b.st_state <- b.st_state + 1;
    op
  | None ->
    let a_op = match addr_op with Some o -> o | None -> I.Const (Address.to_u256 addr) in
    (match b.tmpl with
    | Some t ->
      if not (List.exists (fun (op', _) -> I.operand_equal op' a_op) t.t_addr_reads) then begin
        List.iter
          (fun (op', a') ->
            match (a_op, op') with
            | I.Const _, I.Const _ -> ()
            | _ ->
              let equal = U256.equal (Address.to_u256 addr) a' in
              let e = compute b I.C_eq [| a_op; op' |] (I.bool_word equal) in
              guard b e (I.bool_word equal))
          t.t_addr_reads;
        t.t_addr_reads <- (a_op, Address.to_u256 addr) :: t.t_addr_reads
      end;
      if not (Address.Tbl.mem t.t_addr_ops k) then Address.Tbl.replace t.t_addr_ops k a_op
    | None -> ());
    let pre_val = Statedb.get_balance b.pre addr in
    let r = fresh b pre_val in
    emit b (I.Read (r, I.R_balance a_op));
    let pending = match AKey.find_opt k b.world.deltas with Some ds -> ds | None -> [] in
    let op, traced =
      List.fold_left
        (fun (op, traced) (is_add, amount) ->
          let amt = val_of b amount in
          let cop = if is_add then I.C_add else I.C_sub in
          let traced' = if is_add then U256.add traced amt else U256.sub traced amt in
          (compute b cop [| op; amount |] traced', traced'))
        (I.Reg r, pre_val) (List.rev pending)
    in
    b.world <-
      {
        b.world with
        balances = AKey.add k op b.world.balances;
        deltas = AKey.remove k b.world.deltas;
        balance_traced = AKey.add k traced b.world.balance_traced;
        (* folded-in deltas are real balance changes: without the dirty
           mark, emit_writes would drop the write-back entirely (a
           received transfer would vanish if the balance was read after) *)
        balance_dirty =
          (if pending <> [] then AKey.add k () b.world.balance_dirty
           else b.world.balance_dirty);
      };
    op

(* Apply a balance delta (transfer leg). *)
let balance_delta b addr ~is_add amount_op =
  let amt = val_of b amount_op in
  let traced0 = traced_balance b addr in
  let traced = if is_add then U256.add traced0 amt else U256.sub traced0 amt in
  let w = b.world in
  let balance_traced = AKey.add addr traced w.balance_traced in
  b.world <-
    (match AKey.find_opt addr w.balances with
    | Some op ->
      let cop = if is_add then I.C_add else I.C_sub in
      let op' = compute b cop [| op; amount_op |] traced in
      {
        w with
        balances = AKey.add addr op' w.balances;
        balance_dirty = AKey.add addr () w.balance_dirty;
        balance_traced;
      }
    | None ->
      let ds = match AKey.find_opt addr w.deltas with Some ds -> ds | None -> [] in
      { w with deltas = AKey.add addr ((is_add, amount_op) :: ds) w.deltas; balance_traced })

(* ---- symbolic bytes ---- *)

(* Coalesce the [len] byte sources of [a] from [off] (zero-padded) into
   pieces: maximal runs of constant bytes, and maximal runs of consecutive
   bytes of one register. *)
let rec pieces_of (a : M.src array) off len : I.piece list =
  if len > 0 && (off < 0 || off > Array.length a - len) then pieces_of (M.slice a off len) 0 len
  else begin
    let out = ref [] in
    let i = ref off and stop = off + len in
    while !i < stop do
      let start = !i in
      let s = Array.unsafe_get a start in
      let j = ref (start + 1) in
      if M.is_const s then begin
        while !j < stop && M.is_const (Array.unsafe_get a !j) do
          incr j
        done;
        out := I.P_const (String.init (!j - start) (fun k -> M.char_of a.(start + k))) :: !out
      end
      else begin
        let last = start + 31 - M.byte_of s in
        while !j < stop && !j <= last && Array.unsafe_get a !j = s + (!j - start) do
          incr j
        done;
        out := I.P_reg (M.reg_of s, M.byte_of s, !j - start) :: !out
      end;
      i := !j
    done;
    List.rev !out
  end

let all_pieces a = pieces_of a 0 (Array.length a)

(* The 32 bytes of [a] from [off] as a single operand if possible: a
   constant, or one register's bytes in order. *)
let rec operand_of_word b (a : M.src array) off traced : I.operand option =
  if off < 0 || off > Array.length a - 32 then
    (* past the end (call data tail, unwritten memory): zero-pad a copy *)
    operand_of_word b (M.slice a off 32) 0 traced
  else begin
    let s0 = Array.unsafe_get a off in
    let all_const = ref true and whole = ref (not (M.is_const s0) && M.byte_of s0 = 0) in
    for i = 0 to 31 do
      let s = Array.unsafe_get a (off + i) in
      if not (M.is_const s) then all_const := false;
      if s <> s0 + i then whole := false
    done;
    if !all_const then begin
      let s = U256.to_bytes_be traced in
      for i = 0 to 31 do
        if M.char_of a.(off + i) <> s.[i] then raise (Unsupported "memory const mismatch")
      done;
      Some (I.Const traced)
    end
    else if !whole then begin
      let r = M.reg_of s0 in
      if not (U256.equal b.reg_vals.(r) traced) then
        raise (Unsupported "register alias mismatch");
      Some (I.Reg r)
    end
    else None
  end

(* Word-valued load from byte sources: alias, constant, or a Pack instr. *)
let word_of_srcs b a off traced =
  match operand_of_word b a off traced with
  | Some op ->
    b.st_mem <- b.st_mem + 1;
    op
  | None -> begin
    let pieces = pieces_of a off 32 in
    let key = K_pack pieces in
    match Cse.find_opt b.cse key with
    | Some op ->
      b.st_cse <- b.st_cse + 1;
      op
    | None ->
      b.st_decomposed <- b.st_decomposed + 1;
      let r = fresh b traced in
      emit b (I.Pack (r, pieces));
      Cse.add b.cse key (I.Reg r);
      I.Reg r
  end

let keccak_of_srcs b a off len traced =
  match pieces_of a off len with
  | ([] | [ I.P_const _ ]) as pieces ->
    let s = match pieces with [ I.P_const s ] -> s | _ -> "" in
    let v = Khash.Keccak.digest_u256 s in
    if not (U256.equal v traced) then raise (Unsupported "keccak const mismatch");
    b.st_folded <- b.st_folded + 1;
    I.Const v
  | pieces -> (
    let key = K_keccak pieces in
    match Cse.find_opt b.cse key with
    | Some op ->
      b.st_cse <- b.st_cse + 1;
      op
    | None ->
      let r = fresh b traced in
      emit b (I.Keccak (r, pieces));
      Cse.add b.cse key (I.Reg r);
      I.Reg r)

(* ---- symbolic stack ---- *)

let cur b = match b.frames with f :: _ -> f | [] -> raise (Unsupported "no frame")

let underflow () = raise (Unsupported "symbolic stack underflow")

let spush b op =
  b.stack <- grow b.stack b.sp op;
  Array.unsafe_set b.stack b.sp op;
  b.sp <- b.sp + 1

let spop b =
  if b.sp <= b.bottom then underflow ();
  b.sp <- b.sp - 1;
  Array.unsafe_get b.stack b.sp

(* Pop [n] operands, top first, checking them against the traced input
   values. *)
let no_operand = I.Const U256.zero

let spopn b (step : Evm.Trace.step) n =
  let args = Array.make n no_operand in
  for i = 0 to n - 1 do
    let op = spop b in
    if not (U256.equal (val_of b op) step.inputs.(i)) then
      raise (Unsupported "symbolic/traced divergence");
    args.(i) <- op
  done;
  args

(* Enter [f] as the innermost frame: its stack starts at the current top. *)
let push_frame b f =
  b.frames <- f :: b.frames;
  b.bottom <- f.base

(* Leave the innermost frame, dropping whatever it left on the stack. *)
let pop_frame b child rest =
  b.frames <- rest;
  b.sp <- child.base;
  b.bottom <- (match rest with f :: _ -> f.base | [] -> 0)

let as_int v =
  match U256.to_int_opt v with Some n -> n | None -> raise (Unsupported "huge offset")

(* ---- per-step translation ---- *)

let do_step b (step : Evm.Trace.step) =
  let f = cur b in
  let out i = step.outputs.(i) in
  let inp i = step.inputs.(i) in
  match step.op with
  (* pure stack traffic — eliminated *)
  | PUSH _ ->
    b.st_stack <- b.st_stack + 1;
    spush b (I.Const (out 0))
  | POP ->
    b.st_stack <- b.st_stack + 1;
    ignore (spop b)
  | DUP n ->
    b.st_stack <- b.st_stack + 1;
    if b.sp - n < b.bottom then underflow ();
    spush b b.stack.(b.sp - n)
  | SWAP n ->
    b.st_stack <- b.st_stack + 1;
    let top = b.sp - 1 in
    if top - n < b.bottom then underflow ();
    let x = b.stack.(top) in
    b.stack.(top) <- b.stack.(top - n);
    b.stack.(top - n) <- x
  (* control flow — eliminated, guarded *)
  | JUMPDEST -> b.st_control <- b.st_control + 1
  | JUMP ->
    b.st_control <- b.st_control + 1;
    let args = spopn b step 1 in
    guard b args.(0) (inp 0)
  | JUMPI ->
    b.st_control <- b.st_control + 1;
    let args = spopn b step 2 in
    guard b args.(0) (inp 0);
    guard_truth b args.(1) (inp 1)
  | PC | MSIZE | GAS ->
    b.st_control <- b.st_control + 1;
    spush b (I.Const (out 0))
  (* constants of the transaction itself *)
  | ADDRESS -> spush b (I.Const (Address.to_u256 f.ctx))
  | ORIGIN ->
    spush b
      (match b.tmpl with
      | Some t -> I.Reg t.t_sender
      | None -> I.Const (Address.to_u256 b.tx.sender))
  | CALLER -> spush b f.caller_word
  | CALLVALUE -> spush b f.callvalue
  | GASPRICE ->
    spush b (match b.tmpl with Some t -> I.Reg t.t_gasprice | None -> I.Const (out 0))
  | CALLDATASIZE | CODESIZE | CHAINID -> spush b (I.Const (out 0))
  (* environment reads *)
  | TIMESTAMP -> spush b (env_read b I.R_timestamp (out 0))
  | NUMBER -> spush b (env_read b I.R_number (out 0))
  | COINBASE -> spush b (env_read b I.R_coinbase (out 0))
  | DIFFICULTY -> spush b (env_read b I.R_difficulty (out 0))
  | GASLIMIT -> spush b (env_read b I.R_gaslimit (out 0))
  | BLOCKHASH ->
    let args = spopn b step 1 in
    spush b (env_read b (I.R_blockhash args.(0)) (out 0))
  | EXTCODESIZE ->
    let args = spopn b step 1 in
    guard b args.(0) (inp 0);
    spush b (env_read b (I.R_extcodesize (I.Const (inp 0))) (out 0))
  | EXTCODEHASH ->
    let args = spopn b step 1 in
    guard b args.(0) (inp 0);
    spush b (env_read b (I.R_extcodehash (I.Const (inp 0))) (out 0))
  (* state reads *)
  | BALANCE ->
    let args = spopn b step 1 in
    guard b args.(0) (inp 0);
    warm_guard b (Address.of_u256 (inp 0), None);
    spush b (balance_read b (Address.of_u256 (inp 0)))
  | SELFBALANCE ->
    (* the executing account is warm by construction — no warmth guard *)
    spush b (balance_read b f.ctx)
  | SLOAD ->
    let args = spopn b step 1 in
    warm_guard b (f.ctx, Some (inp 0));
    spush b (sload b f.ctx args.(0) (inp 0) (out 0))
  | SSTORE ->
    let args = spopn b step 2 in
    warm_guard b (f.ctx, Some (inp 0));
    (* Under refund specs the traced gas embeds a refund per zero write:
       pin the zeroness of a variable stored value so a replay writing
       nonzero (different refund) violates instead of mis-charging. *)
    (match args.(1) with
    | I.Const _ -> ()
    | I.Reg _ ->
      if b.spec.Spec.refund_sstore_clear > 0 then begin
        let z = compute b I.C_iszero [| args.(1) |] (I.bool_word (U256.is_zero (inp 1))) in
        guard b z (I.bool_word (U256.is_zero (inp 1)))
      end);
    sstore b f.ctx args.(0) (inp 0) args.(1)
  (* memory — promoted to registers *)
  | MLOAD ->
    let args = spopn b step 1 in
    guard b args.(0) (inp 0);
    spush b (word_of_srcs b (M.bytes f.mem) (as_int (inp 0)) (out 0))
  | MSTORE ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 2 in
    guard b args.(0) (inp 0);
    (match args.(1) with
    | I.Const v -> M.write_const_word f.mem (as_int (inp 0)) v
    | I.Reg r -> M.write_reg_word f.mem (as_int (inp 0)) r)
  | MSTORE8 ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 2 in
    guard b args.(0) (inp 0);
    let dst = as_int (inp 0) in
    M.write_byte f.mem dst
      (match args.(1) with
      | I.Const c -> M.of_char (U256.to_bytes_be c).[31]
      | I.Reg r -> M.of_reg r 31)
  | CALLDATALOAD ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 1 in
    guard b args.(0) (inp 0);
    spush b (word_of_srcs b f.calldata (as_int (inp 0)) (out 0))
  | CALLDATACOPY ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 3 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let dst = as_int (inp 0) and src = as_int (inp 1) and len = as_int (inp 2) in
    M.blit f.mem ~dst f.calldata ~off:src ~len
  | CODECOPY ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 3 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let dst = as_int (inp 0) and src = as_int (inp 1) and len = as_int (inp 2) in
    M.blit_string f.mem ~dst f.code ~off:src ~len
  | RETURNDATASIZE -> spush b (I.Const (out 0))
  | RETURNDATACOPY ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 3 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let dst = as_int (inp 0) and src = as_int (inp 1) and len = as_int (inp 2) in
    M.blit f.mem ~dst f.retdata ~off:src ~len
  (* hashing — decomposed into a register-based hash of memory pieces *)
  | SHA3 ->
    let args = spopn b step 2 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let off = as_int (inp 0) and len = as_int (inp 1) in
    spush b (keccak_of_srcs b (M.bytes f.mem) off len (out 0))
  (* logging *)
  | LOG n ->
    let args = spopn b step (n + 2) in
    guard b args.(0) (inp 0);
    guard b args.(1) (inp 1);
    let topics = List.init n (fun i -> args.(i + 2)) in
    let data = pieces_of (M.bytes f.mem) (as_int (inp 0)) (as_int (inp 1)) in
    b.world <- { b.world with logs = (f.ctx, topics, data) :: b.world.logs }
  (* arithmetic / comparison / bitwise *)
  | EXP ->
    let args = spopn b step 2 in
    guard_size b args.(1) (inp 1);
    spush b (compute b I.C_exp args (out 0))
  | ( ADD | MUL | SUB | DIV | SDIV | MOD | SMOD | ADDMOD | MULMOD | SIGNEXTEND | LT | GT
    | SLT | SGT | EQ | ISZERO | AND | OR | XOR | NOT | BYTE | SHL | SHR | SAR ) as op -> (
    match I.compute_op_of_evm op with
    | Some cop ->
      let args = spopn b step (Evm.Op.stack_in op) in
      spush b (compute b cop args (out 0))
    | None -> assert false)
  (* frame terminators *)
  | STOP ->
    f.result <- [||];
    f.ended <- Some `Return
  | RETURN | REVERT ->
    let args = spopn b step 2 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let off = as_int (inp 0) and len = as_int (inp 1) in
    f.result <- M.slice (M.bytes f.mem) off len;
    f.ended <- Some (if step.op = RETURN then `Return else `Revert)
  | SELFDESTRUCT -> raise (Unsupported "SELFDESTRUCT")
  | EXTCODECOPY ->
    (* Pin the code identity with a hash guard, then the copied bytes are
       the constants we read from the pre-state. *)
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 4 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let addr = Address.of_u256 (inp 0) in
    let code = Statedb.get_code b.pre addr in
    let hash_val =
      if Statedb.is_empty_account b.pre addr then U256.zero
      else U256.of_bytes_be (Statedb.get_code_hash b.pre addr)
    in
    let h = env_read b (I.R_extcodehash (I.Const (inp 0))) hash_val in
    guard b h hash_val;
    let dst = as_int (inp 1) and src = as_int (inp 2) and len = as_int (inp 3) in
    M.blit_string f.mem ~dst code ~off:src ~len
  | CREATE | CREATE2 | CALL | CALLCODE | DELEGATECALL | STATICCALL ->
    raise (Unsupported "call family must arrive as Call_enter")
  | INVALID -> raise (Unsupported "INVALID executed")

(* ---- call-family handling ---- *)

(* Returns [Some frame] if a child frame begins, [None] for instant calls
   (empty code / precompile), in which case the very next event must be the
   matching Call_exit. *)
let do_call_enter b (step : Evm.Trace.step) (info : Evm.Trace.call_info) =
  let f = cur b in
  (match info.kind with
  | C_create | C_create2 -> raise (Unsupported "CREATE in trace")
  | C_call | C_callcode | C_delegate | C_static -> ());
  let has_value = match step.op with Evm.Op.CALL | Evm.Op.CALLCODE -> true | _ -> false in
  let arity = if has_value then 7 else 6 in
  let args = spopn b step arity in
  let inp i = step.inputs.(i) in
  (* gas operand: guard when variable so forwarding stays path-constant *)
  guard b args.(0) (inp 0);
  (* target *)
  guard b args.(1) (inp 1);
  (* the interpreter charges the cold-account surcharge on the popped
     target (code address) for every call kind, precompiles included *)
  warm_guard b (Address.of_u256 (inp 1), None);
  let value_op = if has_value then args.(2) else I.Const U256.zero in
  let voff = if has_value then 1 else 0 in
  let in_off = as_int (inp (2 + voff))
  and in_len = as_int (inp (3 + voff))
  and out_off = as_int (inp (4 + voff))
  and out_len = as_int (inp (5 + voff)) in
  for i = 2 + voff to 5 + voff do
    guard b args.(i) (inp i)
  done;
  let traced_value = if has_value then inp 2 else U256.zero in
  (* A variable value flips the transfer/gas behaviour at 0: pin its
     zeroness. *)
  (match value_op with
  | I.Const _ -> ()
  | I.Reg _ ->
    if has_value then begin
      let z = compute b I.C_iszero [| value_op |] (I.bool_word (U256.is_zero traced_value)) in
      guard b z (I.bool_word (U256.is_zero traced_value))
    end);
  let transfer_intended = info.transfer <> None in
  (* Balance-sufficiency control constraint for transferring calls. *)
  if transfer_intended then begin
    let bal = balance_read b f.ctx in
    let insufficient = U256.lt (val_of b bal) traced_value in
    (* reason X_balance means the transfer failed the check *)
    let lt = compute b I.C_lt [| bal; value_op |] (I.bool_word insufficient) in
    guard b lt (I.bool_word insufficient)
  end;
  let snapshot = b.world in
  let child_calldata = M.slice (M.bytes f.mem) in_off in_len in
  let transfer_in =
    match info.transfer with
    | Some v when not (U256.is_zero v) -> Some (f.ctx, info.child_ctx, value_op, v)
    | Some _ | None -> None
  in
  let apply_transfer () =
    match transfer_in with
    | Some (from, to_, amount_op, _) ->
      balance_delta b from ~is_add:false amount_op;
      balance_delta b to_ ~is_add:true amount_op
    | None -> ()
  in
  match Evm.Interp.precompile_of info.child_code_addr with
  | Some kind ->
    (* precompile: no frame; decompose into an S-EVM hash instruction when
       the input is symbolic *)
    apply_transfer ();
    let outputs =
      match kind with
      | Evm.Interp.P_identity -> child_calldata
      | Evm.Interp.P_sha256 ->
        let pieces = all_pieces child_calldata in
        let all_const =
          List.for_all (function I.P_const _ -> true | I.P_reg _ -> false) pieces
        in
        let traced_input = I.bytes_of_pieces b.reg_vals pieces in
        let digest = Khash.Sha256.digest traced_input in
        if all_const then begin
          b.st_folded <- b.st_folded + 1;
          M.of_string digest
        end
        else begin
          let key = K_sha256 pieces in
          let op =
            match Cse.find_opt b.cse key with
            | Some op ->
              b.st_cse <- b.st_cse + 1;
              op
            | None ->
              b.st_decomposed <- b.st_decomposed + 1;
              let r = fresh b (U256.of_bytes_be digest) in
              emit b (I.Sha256 (r, pieces));
              Cse.add b.cse key (I.Reg r);
              I.Reg r
          in
          match op with
          | I.Reg r -> Array.init 32 (M.of_reg r)
          | I.Const v -> M.of_string (U256.to_bytes_be v)
        end
    in
    `Instant (snapshot, outputs, out_off, out_len)
  | None ->
  if info.child_code = "" then begin
    (* instant call to a code-less account: transfer applies; exit follows *)
    apply_transfer ();
    `Instant (snapshot, [||], out_off, out_len)
  end
  else begin
    apply_transfer ();
    let caller_word, callvalue, ctx =
      match info.kind with
      | C_delegate -> (f.caller_word, f.callvalue, f.ctx)
      | C_callcode -> (I.Const (Address.to_u256 f.ctx), value_op, f.ctx)
      | C_static -> (I.Const (Address.to_u256 f.ctx), I.Const U256.zero, info.child_ctx)
      | C_call -> (I.Const (Address.to_u256 f.ctx), value_op, info.child_ctx)
      | C_create | C_create2 -> assert false
    in
    let child =
      {
        ctx;
        base = b.sp;
        mem = M.create ();
        calldata = child_calldata;
        callvalue;
        caller_word;
        code = info.child_code;
        retdata = [||];
        result = [||];
        ended = None;
        out_region = Some (out_off, out_len);
        snapshot;
        transfer_in;
      }
    in
    `Frame child
  end

(* Finish a call whose child frame ran: commit or roll back, copy output. *)
let do_call_exit b child (exit_ : bool * string) =
  let success, _output = exit_ in
  let parent = cur b in
  if not success then b.world <- child.snapshot;
  let result = child.result in
  (* copy into the parent's out region *)
  (match child.out_region with
  | Some (out_off, out_len) ->
    let n = min (Array.length result) out_len in
    M.blit parent.mem ~dst:out_off result ~off:0 ~len:n
  | None -> ());
  parent.retdata <- result;
  spush b (I.Const (if success then U256.one else U256.zero))

(* ---- write-set emission ---- *)

let emit_writes b (receipt : Evm.Processor.receipt) ~extra_writes benv_coinbase_traced =
  match receipt.status with
  | Invalid _ -> []
  | Success | Reverted ->
    let tx = b.tx in
    let gas_left = tx.gas_limit - receipt.gas_used in
    (* in template mode limit, price and gas_used are all register-held,
       so the refund and the miner fee are products of registers; ordinary
       paths bake the traced constants *)
    let gasprice_op =
      match b.tmpl with Some t -> I.Reg t.t_gasprice | None -> I.Const tx.gas_price
    in
    let refund_op, fee_op =
      match b.tmpl with
      | None ->
        ( I.Const (U256.mul (U256.of_int gas_left) tx.gas_price),
          I.Const (U256.mul (U256.of_int receipt.gas_used) tx.gas_price) )
      | Some t ->
        let left =
          compute b I.C_sub
            [| I.Reg t.t_gaslimit; I.Reg t.t_gas_used |]
            (U256.of_int gas_left)
        in
        ( compute b I.C_mul [| left; gasprice_op |]
            (U256.mul (U256.of_int gas_left) tx.gas_price),
          compute b I.C_mul
            [| I.Reg t.t_gas_used; gasprice_op |]
            (U256.mul (U256.of_int receipt.gas_used) tx.gas_price) )
    in
    (* refund of unused gas *)
    balance_delta b tx.sender ~is_add:true refund_op;
    let nonce_write =
      match b.tmpl with
      | None -> I.W_nonce_set (tx.sender, tx.nonce + 1)
      | Some t ->
        let n1 =
          compute b I.C_add
            [| I.Reg t.t_nonce; I.Const U256.one |]
            (U256.of_int (tx.nonce + 1))
        in
        I.W_nonce_dyn (I.Reg t.t_sender, n1)
    in
    let writes = ref [ nonce_write ] in
    let add w = writes := w :: !writes in
    (* absolute balance writes for addresses whose balance was read,
       addressed the way they were first read (register in template mode) *)
    let balance_addr_op k =
      match b.tmpl with
      | Some t -> (
        match Address.Tbl.find_opt t.t_addr_ops k with
        | Some op -> op
        | None -> I.Const (Address.to_u256 k))
      | None -> I.Const (Address.to_u256 k)
    in
    (* every dirty address has been read, so it is in [balances] *)
    AKey.iter
      (fun k () -> add (I.W_balance_set (balance_addr_op k, AKey.find k b.world.balances)))
      b.world.balance_dirty;
    (* pure deltas for addresses never read: fold constants into one add
       (wrap-around makes subtraction an addition of the complement) *)
    AKey.iter
      (fun k ds ->
        let addr_op = I.Const (Address.to_u256 k) in
        let const_net, regs =
          List.fold_left
            (fun (net, regs) (is_add, amount) ->
              match amount with
              | I.Const v -> ((if is_add then U256.add net v else U256.sub net v), regs)
              | I.Reg _ -> (net, (is_add, amount) :: regs))
            (U256.zero, []) ds
        in
        if not (U256.is_zero const_net) then add (I.W_balance_add (addr_op, I.Const const_net));
        List.iter
          (fun (is_add, amount) ->
            add (if is_add then I.W_balance_add (addr_op, amount)
                 else I.W_balance_sub (addr_op, amount)))
          regs)
      b.world.deltas;
    (* storage, one write per dirty slot — dynamically addressed when the
       slot was first named by a register key *)
    (match b.world.storage_dirty with
    | [] -> ()
    | dirty ->
      let seen = Slot.Tbl.create 16 in
      List.iter
        (fun ((addr, key) as k) ->
          if not (Slot.Tbl.mem seen k) then begin
            Slot.Tbl.replace seen k ();
            let value = Slot.Map.find k b.world.storage in
            let dyn_key =
              match b.tmpl with
              | Some t -> (
                match Slot.Tbl.find_opt t.t_skey_first k with
                | Some (I.Reg _ as op) -> Some op
                | Some (I.Const _) | None -> None)
              | None -> None
            in
            match dyn_key with
            | Some key_op -> add (I.W_storage_dyn (addr, key_op, value))
            | None -> add (I.W_storage (addr, key, value))
          end)
        dirty);
    (* creation effects (deployed code, fresh nonce) *)
    List.iter add extra_writes;
    (* logs in emission order *)
    List.iter (fun (a, topics, data) -> add (I.W_log (a, topics, data))) (List.rev b.world.logs);
    (* miner fee last: coinbase is a context value, read not guarded *)
    let cb = env_read b I.R_coinbase benv_coinbase_traced in
    add (I.W_balance_add (cb, fee_op));
    List.rev !writes

(* ---- main entry ---- *)

let count_trace_len events =
  Array.fold_left
    (fun acc ev ->
      match ev with
      | Evm.Trace.Step _ | Evm.Trace.Call_enter _ -> acc + 1
      | Evm.Trace.Call_exit _ -> acc)
    0 events

(* Does the traced path replay exactly under any envelope that covers its
   execution charge?  Only if nothing on it reads the gas left: no GAS
   step and no CALL/CREATE-family frame (forwarding is a share of the
   remaining gas). *)
let exact_envelope events =
  Array.for_all
    (function
      | Evm.Trace.Step { op = Evm.Op.GAS; _ } -> false
      | Evm.Trace.Step _ -> true
      | Evm.Trace.Call_enter _ | Evm.Trace.Call_exit _ -> false)
    events

let build ?spec ?(prewarm = []) ?(template = false) (tx : Evm.Env.tx)
    (benv : Evm.Env.block_env) (events : Evm.Trace.event array)
    (receipt : Evm.Processor.receipt) (pre : Statedb.t) : (I.path, string) result =
  let spec = match spec with Some s -> s | None -> !Spec.current in
  try
    let b = create spec prewarm tx pre in
    if template then init_template b receipt;
    b.trace_len <- count_trace_len events;
    let invalid_reason =
      match receipt.status with Invalid r -> Some r | Success | Reverted -> None
    in
    (* --- preamble: nonce and upfront-balance constraints --- *)
    let r_nonce = fresh b (U256.of_int receipt.sender_nonce_before) in
    (match b.tmpl with
    | Some t -> emit b (I.Read (r_nonce, I.R_nonce_of (I.Reg t.t_sender)))
    | None -> emit b (I.Read (r_nonce, I.R_nonce tx.sender)));
    let nonce_ok = receipt.sender_nonce_before = tx.nonce in
    let nonce_expect =
      match b.tmpl with Some t -> I.Reg t.t_nonce | None -> I.Const (U256.of_int tx.nonce)
    in
    let eq = compute b I.C_eq [| I.Reg r_nonce; nonce_expect |] (I.bool_word nonce_ok) in
    let is_nonce_invalid =
      match invalid_reason with Some r -> String.length r >= 5 && String.sub r 0 5 = "nonce" | None -> false
    in
    guard b eq (I.bool_word (not is_nonce_invalid));
    let finish_path ?(extra_writes = []) output_pieces =
      let writes = emit_writes b receipt (Address.to_u256 benv.coinbase) ~extra_writes in
      let scheduled =
        Opt.schedule b.instrs b.n_emitted ~reg_count:b.next_reg writes output_pieces
      in
      let stats =
        {
          I.evm_trace_len = b.trace_len;
          decomposed_added = b.st_decomposed;
          stack_eliminated = b.st_stack;
          mem_eliminated = b.st_mem;
          control_eliminated = b.st_control;
          state_eliminated = b.st_state;
          const_folded = b.st_folded;
          cse_removed = b.st_cse;
          dead_removed = scheduled.dead_removed;
          guards_added = b.st_guards;
          constraint_len = scheduled.first_fast;
          fastpath_len = Array.length scheduled.instrs - scheduled.first_fast;
        }
      in
      Ok
        {
          I.instrs = scheduled.instrs;
          first_fast = scheduled.first_fast;
          writes;
          status = receipt.status;
          gas_used = receipt.gas_used;
          gas_used_src =
            (match b.tmpl with
            | Some t -> Some (I.Reg t.t_gas_used)
            | None -> None);
          gas_refund = receipt.gas_refund;
          output = output_pieces;
          reg_count = b.next_reg;
          reg_values = Array.sub b.reg_vals 0 b.next_reg;
          fork = b.spec.Spec.id;
          inputs = (match b.tmpl with Some t -> t.t_inputs | None -> [||]);
          stats;
        }
    in
    if is_nonce_invalid then finish_path []
    else begin
      let sender_addr_op = match b.tmpl with Some t -> Some (I.Reg t.t_sender) | None -> None in
      let bal_op = balance_read ?addr_op:sender_addr_op b tx.sender in
      if not (U256.equal (val_of b bal_op) receipt.sender_balance_before) then
        raise (Unsupported "pre-state balance mismatch");
      let purchase_traced = U256.mul (U256.of_int tx.gas_limit) tx.gas_price in
      (* [Evm.Processor.upfront_cost], without recomputing the purchase *)
      let upfront = U256.add purchase_traced tx.value in
      let upfront_op, purchase_op =
        match b.tmpl with
        | None -> (I.Const upfront, I.Const purchase_traced)
        | Some t ->
          (* limit, price and value are all inputs *)
          let m =
            compute b I.C_mul
              [| I.Reg t.t_gaslimit; I.Reg t.t_gasprice |]
              purchase_traced
          in
          (compute b I.C_add [| m; I.Reg t.t_value |] upfront, m)
      in
      let insufficient = U256.lt receipt.sender_balance_before upfront in
      let lt = compute b I.C_lt [| bal_op; upfront_op |] (I.bool_word insufficient) in
      guard b lt (I.bool_word insufficient);
      (match b.tmpl with
      | None -> ()
      | Some t ->
        (* intrinsic validity: the served limit covers its own intrinsic
           charge (a served short limit would be an Invalid transaction,
           which this Success/Reverted path cannot represent) *)
        let invalid_gas =
          compute b I.C_lt [| I.Reg t.t_gaslimit; I.Reg t.t_intrinsic |] U256.zero
        in
        guard b invalid_gas U256.zero;
        (* gas envelope: served limit - intrinsic must cover the traced
           path.  Remaining gas is read only by [charge] (f.gas >= n), GAS,
           CALL/CREATE forwarding and the creation-code deposit; SSTORE
           pricing is flat, and the charges along a fixed path do not
           depend on the gas left.  So a trace without calls or GAS
           replays step for step whenever the served envelope holds its
           execution charge [g_exec] — the exact envelope.  A trace with
           calls forwards a share of the remaining gas (63/64) and keeps
           the traced envelope.  The SUB register's traced value stays the
           traced envelope either way: memo values are recorded from it. *)
        let intrinsic = Spec.intrinsic_gas b.spec ~is_create:false tx.data in
        let env_traced = U256.of_int (tx.gas_limit - intrinsic) in
        let env_op =
          compute b I.C_sub [| I.Reg t.t_gaslimit; I.Reg t.t_intrinsic |] env_traced
        in
        let env_min =
          if exact_envelope events then
            U256.of_int (receipt.gas_used + receipt.gas_refund - intrinsic)
          else env_traced
        in
        let short = compute b I.C_lt [| env_op; I.Const env_min |] U256.zero in
        guard b short U256.zero);
      match invalid_reason with
      | Some _ -> finish_path [] (* insufficient funds or intrinsic gas *)
      | None ->
        (* gas purchase *)
        balance_delta b tx.sender ~is_add:false purchase_op;
        (* Walk the recorded events against the symbolic top frame, then
           unwind it; returns the frame's termination and result bytes. *)
        let run_top top =
          push_frame b top;
          let i = ref 0 in
          let n = Array.length events in
          while !i < n do
            (match events.(!i) with
            | Evm.Trace.Step s -> do_step b s
            | Evm.Trace.Call_enter (s, info) -> (
              match do_call_enter b s info with
              | `Frame child -> push_frame b child
              | `Instant (snapshot, retsrcs, out_off, out_len) -> (
                incr i;
                if !i >= n then raise (Unsupported "truncated trace");
                match events.(!i) with
                | Evm.Trace.Call_exit { success; _ } ->
                  let parent = cur b in
                  if not success then b.world <- snapshot;
                  let result = if success then retsrcs else [||] in
                  let m = min (Array.length result) out_len in
                  M.blit parent.mem ~dst:out_off result ~off:0 ~len:m;
                  parent.retdata <- result;
                  spush b (I.Const (if success then U256.one else U256.zero))
                | Evm.Trace.Step _ | Evm.Trace.Call_enter _ ->
                  raise (Unsupported "instant call not followed by exit")))
            | Evm.Trace.Call_exit { success; output; _ } -> (
              match b.frames with
              | child :: (_ :: _ as rest) ->
                pop_frame b child rest;
                do_call_exit b child (success, output)
              | [ _ ] | [] -> raise (Unsupported "unbalanced call exit")));
            incr i
          done;
          match b.frames with
          | [ top ] ->
            (match top.ended with
            | Some `Return -> ()
            | Some `Revert | None -> b.world <- top.snapshot);
            (match (receipt.status, top.ended) with
            | Success, Some `Return | Reverted, (Some `Revert | None) -> ()
            | (Success | Reverted | Invalid _), _ ->
              raise (Unsupported "status/trace mismatch"));
            (top.ended, top.result)
          | _ :: _ | [] -> raise (Unsupported "trace ended mid-call")
        in
        let mk_top ~ctx ~code ~calldata ~snap_world =
          {
            ctx;
            base = 0;
            mem = M.create ();
            calldata;
            callvalue =
              (match b.tmpl with Some t -> I.Reg t.t_value | None -> I.Const tx.value);
            caller_word =
              (match b.tmpl with
              | Some t -> I.Reg t.t_sender
              | None -> I.Const (Address.to_u256 tx.sender));
            code;
            retdata = [||];
            result = [||];
            ended = None;
            out_region = None;
            snapshot = snap_world;
            transfer_in = None;
          }
        in
        let output_pieces, extra_writes =
          match tx.to_ with
          | Some target ->
            let snap_world = b.world in
            (* zero-value transactions skip the transfer legs at build time;
               the template key pins value zeroness, so a served transaction
               never needs legs the template lacks (and a register-held
               nonzero value flows through the legs symbolically) *)
            if not (U256.is_zero tx.value) then begin
              let v_op =
                match b.tmpl with Some t -> I.Reg t.t_value | None -> I.Const tx.value
              in
              balance_delta b tx.sender ~is_add:false v_op;
              balance_delta b target ~is_add:true v_op
            end;
            let code = Statedb.get_code pre target in
            let calldata_srcs =
              match b.tmpl with
              | None -> M.of_string tx.data
              | Some t ->
                (* selector bytes are template-key-pinned constants; every
                   byte past offset 4 aliases a calldata-word input register *)
                Array.init (String.length tx.data) (fun i ->
                    if i < 4 then M.of_char tx.data.[i]
                    else M.of_reg t.t_words.((i - 4) / 32) ((i - 4) mod 32))
            in
            let pieces =
              match Evm.Interp.precompile_of target with
              | Some kind ->
                (* top-level precompile call: data is constant, so is the
                   result (template mode rejected precompile targets up
                   front) *)
                let _, out = Evm.Interp.run_precompile kind tx.data in
                if out = "" then [] else [ I.P_const out ]
              | None ->
                if code = "" then []
                else begin
                  let _, result =
                    run_top (mk_top ~ctx:target ~code ~calldata:calldata_srcs ~snap_world)
                  in
                  all_pieces result
                end
            in
            (pieces, [])
          | None ->
            (* top-level contract creation: the new address is a constant
               (sender and nonce are already pinned by the preamble guards),
               the init code is the transaction data. *)
            let new_addr = Evm.Interp.create_address tx.sender tx.nonce in
            (* collision constraints: the target slot must look exactly as it
               did during speculation *)
            let traced_nonce = Statedb.get_nonce pre new_addr in
            let r_nonce2 = fresh b (U256.of_int traced_nonce) in
            emit b (I.Read (r_nonce2, I.R_nonce new_addr));
            guard b (I.Reg r_nonce2) (U256.of_int traced_nonce);
            let traced_size = String.length (Statedb.get_code pre new_addr) in
            let sz =
              env_read b (I.R_extcodesize (I.Const (Address.to_u256 new_addr)))
                (U256.of_int traced_size)
            in
            guard b sz (U256.of_int traced_size);
            let collision = traced_nonce > 0 || traced_size > 0 in
            if collision then ([], [])
            else begin
              let snap_world = b.world in
              if not (U256.is_zero tx.value) then begin
                balance_delta b tx.sender ~is_add:false (I.Const tx.value);
                balance_delta b new_addr ~is_add:true (I.Const tx.value)
              end;
              let ended, result =
                run_top (mk_top ~ctx:new_addr ~code:tx.data ~calldata:[||] ~snap_world)
              in
              match ended with
              | Some `Return ->
                let deployed = all_pieces result in
                ( [ I.P_const (Address.to_bytes new_addr) ],
                  [ I.W_nonce_set (new_addr, 1); I.W_code (new_addr, deployed) ] )
              | Some `Revert | None -> (all_pieces result, [])
            end
        in
        (* sanity: materialized output must equal the traced output *)
        let materialized = I.bytes_of_pieces b.reg_vals output_pieces in
        if not (String.equal materialized receipt.output) then
          raise (Unsupported "output mismatch");
        finish_path ~extra_writes output_pieces
    end
  with
  | Unsupported msg -> Error msg
  | M.Out_of_range -> Error "memory offset out of range"
