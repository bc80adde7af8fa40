(* Trace-based program specialization (paper Fig. 6).

   The builder replays a recorded EVM trace symbolically, performing in one
   pass: complex-instruction decomposition, stack-to-register SSA
   translation, register promotion (stack, memory, storage, environment),
   control-flow elimination, constant folding and CSE, and constraint
   generation (control guards at branch points, data guards on variable
   offsets/sizes/keys).  The output is a linear {!Ir.path}: a constraint
   section, a fast path, and a deferred write set — rollback-free by
   construction because all writes commit after the last guard.

   Traces containing CREATE or SELFDESTRUCT are rejected ([Unsupported]);
   such transactions run without an AP (still helped by prefetching),
   mirroring the paper's missed-prediction bucket. *)

open State
module I = Ir

exception Unsupported of string

(* ---- symbolic world state (immutable, for snapshot/rollback) ---- *)

module SKey = Map.Make (struct
  type t = string * string (* address bytes, 32-byte storage key *)

  let compare = compare
end)

module AKey = Map.Make (String)

type world = {
  storage : I.operand SKey.t;
  storage_dirty : SKey.key list; (* newest first, may contain dups *)
  balances : I.operand AKey.t; (* symbolic balance of addresses read *)
  balance_dirty : unit AKey.t;
  deltas : (bool * I.operand) list AKey.t; (* (is_add, amount), unread addrs *)
  balance_traced : U256.t AKey.t; (* concrete balance during the pre-execution *)
  logs : (Address.t * I.operand list * I.piece list) list; (* newest first *)
}

let empty_world =
  {
    storage = SKey.empty;
    storage_dirty = [];
    balances = AKey.empty;
    balance_dirty = AKey.empty;
    deltas = AKey.empty;
    balance_traced = AKey.empty;
    logs = [];
  }

(* ---- symbolic frames ---- *)

type byte_src = B_const of char | B_reg of I.reg * int

type frame = {
  ctx : Address.t;
  mutable stack : I.operand list;
  mem : (int, byte_src) Hashtbl.t;
  calldata : byte_src array;
  callvalue : I.operand;
  caller_word : I.operand;
  code : string;
  mutable retdata : byte_src array;
  mutable result : byte_src array;
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
  | K_pack of I.piece list
  | K_read of I.read_src

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
  t_skeys : (string, (I.operand * U256.t) list ref) Hashtbl.t;
  t_skey_first : (string * string, I.operand) Hashtbl.t;
  mutable t_addr_reads : (I.operand * U256.t) list;
  t_addr_ops : (string, I.operand) Hashtbl.t;
}

type t = {
  tx : Evm.Env.tx;
  pre : Statedb.t; (* state as of just before the traced execution *)
  spec : Spec.t; (* fork the trace ran under; stamped into the path *)
  prewarm : (Address.t * U256.t option) list; (* entry access-list hint *)
  warm_touched : (Address.t * U256.t option, unit) Hashtbl.t;
      (* locations whose entry warmth is already pinned (first touch only) *)
  mutable world : world;
  mutable instrs : I.instr list; (* reversed *)
  mutable n_emitted : int;
  mutable next_reg : int;
  mutable reg_vals : U256.t array;
  cse : (cse_key, I.operand) Hashtbl.t;
  guards_seen : (I.operand * U256.t, unit) Hashtbl.t;
  mutable tmpl : tmpl option; (* Some = template-lifting mode *)
  mutable frames : frame list; (* head = innermost *)
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
    warm_touched = Hashtbl.create 16;
    world = empty_world;
    instrs = [];
    n_emitted = 0;
    next_reg = 0;
    reg_vals = Array.make 64 U256.zero;
    cse = Hashtbl.create 64;
    guards_seen = Hashtbl.create 16;
    tmpl = None;
    frames = [];
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

let fresh b v =
  let r = b.next_reg in
  b.next_reg <- r + 1;
  if r >= Array.length b.reg_vals then begin
    let a = Array.make (2 * Array.length b.reg_vals) U256.zero in
    Array.blit b.reg_vals 0 a 0 (Array.length b.reg_vals);
    b.reg_vals <- a
  end;
  b.reg_vals.(r) <- v;
  r

let emit b ins =
  b.instrs <- ins :: b.instrs;
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
        t_skeys = Hashtbl.create 8;
        t_skey_first = Hashtbl.create 8;
        t_addr_reads = [];
        t_addr_ops = Hashtbl.create 4;
      }

(* Emit (or fold / reuse) a compute instruction; [traced] is the concrete
   result observed during the pre-execution. *)
let compute b op args traced =
  if Array.for_all (function I.Const _ -> true | I.Reg _ -> false) args then begin
    let folded = I.eval_compute op (Array.map (val_of b) args) in
    if not (U256.equal folded traced) then
      raise (Unsupported "constant-fold mismatch (builder bug)");
    b.st_folded <- b.st_folded + 1;
    I.Const traced
  end
  else begin
    let key = K_compute (op, args) in
    match Hashtbl.find_opt b.cse key with
    | Some op' ->
      b.st_cse <- b.st_cse + 1;
      op'
    | None ->
      let r = fresh b traced in
      emit b (I.Compute (r, op, args));
      Hashtbl.replace b.cse key (I.Reg r);
      I.Reg r
  end

(* Equality guard: no-op when the operand is already a constant. *)
let guard b op expected =
  match op with
  | I.Const v ->
    if not (U256.equal v expected) then raise (Unsupported "constant guard mismatch")
  | I.Reg _ ->
    if not (Hashtbl.mem b.guards_seen (op, expected)) then begin
      Hashtbl.replace b.guards_seen (op, expected) ();
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
  if b.spec.Spec.has_access_lists && not (Hashtbl.mem b.warm_touched key) then begin
    Hashtbl.replace b.warm_touched key ();
    if not (entry_warm_invariant b key) then begin
      emit b (I.Guard_warm (key, Evm.Processor.entry_warm b.tx b.prewarm key));
      b.st_guards <- b.st_guards + 1
    end
  end

(* Environment reads are stable within a transaction: CSE promotes repeats. *)
let env_read b src traced =
  let key = K_read src in
  match Hashtbl.find_opt b.cse key with
  | Some op ->
    b.st_state <- b.st_state + 1;
    op
  | None ->
    let r = fresh b traced in
    emit b (I.Read (r, src));
    Hashtbl.replace b.cse key (I.Reg r);
    I.Reg r

(* ---- storage model ---- *)

let skey addr key = (Address.to_bytes addr, U256.to_bytes_be key)

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
    let ak = Address.to_bytes addr in
    let seen =
      match Hashtbl.find_opt t.t_skeys ak with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.t_skeys ak l;
        l
    in
    if not (List.exists (fun (op', _) -> op' = key_op) !seen) then begin
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
  | Some t -> if not (Hashtbl.mem t.t_skey_first k) then Hashtbl.replace t.t_skey_first k key_op

let sload b addr key_op traced_key traced_val =
  pin_skey b addr key_op traced_key;
  let k = skey addr traced_key in
  skey_first_op b k key_op;
  match SKey.find_opt k b.world.storage with
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
    b.world <- { b.world with storage = SKey.add k (I.Reg r) b.world.storage };
    I.Reg r

let sstore b addr key_op traced_key value_op =
  pin_skey b addr key_op traced_key;
  let k = skey addr traced_key in
  skey_first_op b k key_op;
  b.world <-
    {
      b.world with
      storage = SKey.add k value_op b.world.storage;
      storage_dirty = k :: b.world.storage_dirty;
    }

(* ---- balance model ---- *)

let akey addr = Address.to_bytes addr

let traced_balance b addr =
  match AKey.find_opt (akey addr) b.world.balance_traced with
  | Some v -> v
  | None -> Statedb.get_balance b.pre addr

(* Current symbolic balance of [addr], reading it (pre-state value) if it
   has not been read yet and folding in any pending deltas.  [?addr_op]
   lets template mode read through a register (the sender input); the
   world's balance map is keyed by traced addresses, so in template mode
   every newly-read address is aliasing-guarded against the ones already
   read — delta-only addresses commute and need no guard. *)
let balance_read ?addr_op b addr =
  let k = akey addr in
  match AKey.find_opt k b.world.balances with
  | Some op ->
    b.st_state <- b.st_state + 1;
    op
  | None ->
    let a_op = match addr_op with Some o -> o | None -> I.Const (Address.to_u256 addr) in
    (match b.tmpl with
    | Some t ->
      if not (List.exists (fun (op', _) -> op' = a_op) t.t_addr_reads) then begin
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
      if not (Hashtbl.mem t.t_addr_ops k) then Hashtbl.replace t.t_addr_ops k a_op
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
  let k = akey addr in
  let amt = val_of b amount_op in
  let traced0 = traced_balance b addr in
  let traced = if is_add then U256.add traced0 amt else U256.sub traced0 amt in
  (match AKey.find_opt k b.world.balances with
  | Some op ->
    let cop = if is_add then I.C_add else I.C_sub in
    let op' = compute b cop [| op; amount_op |] traced in
    b.world <-
      {
        b.world with
        balances = AKey.add k op' b.world.balances;
        balance_dirty = AKey.add k () b.world.balance_dirty;
      }
  | None ->
    let ds = match AKey.find_opt k b.world.deltas with Some ds -> ds | None -> [] in
    b.world <- { b.world with deltas = AKey.add k ((is_add, amount_op) :: ds) b.world.deltas });
  b.world <- { b.world with balance_traced = AKey.add k traced b.world.balance_traced }

(* ---- symbolic memory ---- *)

let mem_write_word mem off op =
  match op with
  | I.Const v ->
    let bytes = U256.to_bytes_be v in
    for i = 0 to 31 do
      Hashtbl.replace mem (off + i) (B_const bytes.[i])
    done
  | I.Reg r ->
    for i = 0 to 31 do
      Hashtbl.replace mem (off + i) (B_reg (r, i))
    done

let mem_write_bytes mem off (src : byte_src array) =
  Array.iteri (fun i v -> Hashtbl.replace mem (off + i) v) src

let mem_slice mem off len : byte_src array =
  Array.init len (fun i ->
      match Hashtbl.find_opt mem (off + i) with Some v -> v | None -> B_const '\000')

(* Pad-with-zeros slice of a byte_src array (calldata / returndata). *)
let arr_slice (src : byte_src array) off len : byte_src array =
  Array.init len (fun i ->
      if off + i < Array.length src && off + i >= 0 then src.(off + i) else B_const '\000')

let bytes_as_srcs s = Array.init (String.length s) (fun i -> B_const s.[i])

(* Coalesce byte sources into pieces. *)
let pieces_of_srcs (srcs : byte_src array) : I.piece list =
  let out = ref [] in
  let buf = Buffer.create 32 in
  let flush_const () =
    if Buffer.length buf > 0 then begin
      out := I.P_const (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  let pending = ref None (* (reg, start_off, len) *) in
  let flush_reg () =
    match !pending with
    | Some (r, off, len) ->
      out := I.P_reg (r, off, len) :: !out;
      pending := None
    | None -> ()
  in
  Array.iter
    (fun src ->
      match src with
      | B_const c ->
        flush_reg ();
        Buffer.add_char buf c
      | B_reg (r, i) -> (
        flush_const ();
        match !pending with
        | Some (r', off, len) when r' = r && off + len = i ->
          pending := Some (r', off, len + 1)
        | _ ->
          flush_reg ();
          pending := Some (r, i, 1)))
    srcs;
  flush_reg ();
  flush_const ();
  List.rev !out

(* A 32-byte slice as a single operand if possible. *)
let operand_of_word_srcs b (srcs : byte_src array) traced : I.operand option =
  assert (Array.length srcs = 32);
  let all_const = Array.for_all (function B_const _ -> true | B_reg _ -> false) srcs in
  if all_const then begin
    let s =
      String.init 32 (fun i -> match srcs.(i) with B_const c -> c | B_reg _ -> assert false)
    in
    let v = U256.of_bytes_be s in
    if not (U256.equal v traced) then raise (Unsupported "memory const mismatch");
    Some (I.Const v)
  end
  else begin
    match srcs.(0) with
    | B_reg (r, 0) ->
      let whole = ref true in
      for i = 1 to 31 do
        match srcs.(i) with
        | B_reg (r', j) when r' = r && j = i -> ()
        | B_reg _ | B_const _ -> whole := false
      done;
      if !whole then begin
        if not (U256.equal b.reg_vals.(r) traced) then
          raise (Unsupported "register alias mismatch");
        Some (I.Reg r)
      end
      else None
    | B_reg _ | B_const _ -> None
  end

(* Word-valued load from byte sources: alias, constant, or a Pack instr. *)
let word_of_srcs b srcs traced =
  match operand_of_word_srcs b srcs traced with
  | Some op ->
    b.st_mem <- b.st_mem + 1;
    op
  | None -> begin
    let pieces = pieces_of_srcs srcs in
    let key = K_pack pieces in
    match Hashtbl.find_opt b.cse key with
    | Some op ->
      b.st_cse <- b.st_cse + 1;
      op
    | None ->
      b.st_decomposed <- b.st_decomposed + 1;
      let r = fresh b traced in
      emit b (I.Pack (r, pieces));
      Hashtbl.replace b.cse key (I.Reg r);
      I.Reg r
  end

let keccak_of_srcs b srcs traced =
  let pieces = pieces_of_srcs srcs in
  let all_const = List.for_all (function I.P_const _ -> true | I.P_reg _ -> false) pieces in
  if all_const then begin
    let s = String.concat "" (List.map (function I.P_const s -> s | I.P_reg _ -> "") pieces) in
    let v = Khash.Keccak.digest_u256 s in
    if not (U256.equal v traced) then raise (Unsupported "keccak const mismatch");
    b.st_folded <- b.st_folded + 1;
    I.Const v
  end
  else begin
    let key = K_keccak pieces in
    match Hashtbl.find_opt b.cse key with
    | Some op ->
      b.st_cse <- b.st_cse + 1;
      op
    | None ->
      let r = fresh b traced in
      emit b (I.Keccak (r, pieces));
      Hashtbl.replace b.cse key (I.Reg r);
      I.Reg r
  end

(* ---- symbolic stack ---- *)

let cur b = match b.frames with f :: _ -> f | [] -> raise (Unsupported "no frame")

let spush b op =
  let f = cur b in
  f.stack <- op :: f.stack

let spop b =
  let f = cur b in
  match f.stack with
  | op :: rest ->
    f.stack <- rest;
    op
  | [] -> raise (Unsupported "symbolic stack underflow")

(* Pop [n] operands, checking them against the traced input values. *)
let spopn b (step : Evm.Trace.step) n =
  Array.init n (fun i ->
      let op = spop b in
      let traced = step.inputs.(i) in
      if not (U256.equal (val_of b op) traced) then
        raise (Unsupported "symbolic/traced divergence");
      op)

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
    spush b (List.nth f.stack (n - 1))
  | SWAP n ->
    b.st_stack <- b.st_stack + 1;
    let arr = Array.of_list f.stack in
    if Array.length arr <= n then raise (Unsupported "symbolic stack underflow");
    let top = arr.(0) in
    arr.(0) <- arr.(n);
    arr.(n) <- top;
    f.stack <- Array.to_list arr
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
    let srcs = mem_slice f.mem (as_int (inp 0)) 32 in
    spush b (word_of_srcs b srcs (out 0))
  | MSTORE ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 2 in
    guard b args.(0) (inp 0);
    mem_write_word f.mem (as_int (inp 0)) args.(1)
  | MSTORE8 ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 2 in
    guard b args.(0) (inp 0);
    let dst = as_int (inp 0) in
    (match args.(1) with
    | I.Const c ->
      Hashtbl.replace f.mem dst (B_const (U256.to_bytes_be c).[31])
    | I.Reg r -> Hashtbl.replace f.mem dst (B_reg (r, 31)))
  | CALLDATALOAD ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 1 in
    guard b args.(0) (inp 0);
    let srcs = arr_slice f.calldata (as_int (inp 0)) 32 in
    spush b (word_of_srcs b srcs (out 0))
  | CALLDATACOPY ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 3 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let dst = as_int (inp 0) and src = as_int (inp 1) and len = as_int (inp 2) in
    mem_write_bytes f.mem dst (arr_slice f.calldata src len)
  | CODECOPY ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 3 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let dst = as_int (inp 0) and src = as_int (inp 1) and len = as_int (inp 2) in
    mem_write_bytes f.mem dst (arr_slice (bytes_as_srcs f.code) src len)
  | RETURNDATASIZE -> spush b (I.Const (out 0))
  | RETURNDATACOPY ->
    b.st_mem <- b.st_mem + 1;
    let args = spopn b step 3 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let dst = as_int (inp 0) and src = as_int (inp 1) and len = as_int (inp 2) in
    mem_write_bytes f.mem dst (arr_slice f.retdata src len)
  (* hashing — decomposed into a register-based hash of memory pieces *)
  | SHA3 ->
    let args = spopn b step 2 in
    Array.iteri (fun i op -> guard b op (inp i)) args;
    let off = as_int (inp 0) and len = as_int (inp 1) in
    spush b (keccak_of_srcs b (mem_slice f.mem off len) (out 0))
  (* logging *)
  | LOG n ->
    let args = spopn b step (n + 2) in
    guard b args.(0) (inp 0);
    guard b args.(1) (inp 1);
    let topics = List.init n (fun i -> args.(i + 2)) in
    let data = pieces_of_srcs (mem_slice f.mem (as_int (inp 0)) (as_int (inp 1))) in
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
    f.result <- mem_slice f.mem off len;
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
    mem_write_bytes f.mem dst (arr_slice (bytes_as_srcs code) src len)
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
  let child_calldata = mem_slice f.mem in_off in_len in
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
        let pieces = pieces_of_srcs child_calldata in
        let all_const =
          List.for_all (function I.P_const _ -> true | I.P_reg _ -> false) pieces
        in
        let traced_input = I.bytes_of_pieces b.reg_vals pieces in
        let digest = Khash.Sha256.digest traced_input in
        if all_const then begin
          b.st_folded <- b.st_folded + 1;
          bytes_as_srcs digest
        end
        else begin
          let key = K_keccak (I.P_const "sha256" :: pieces) in
          let op =
            match Hashtbl.find_opt b.cse key with
            | Some op ->
              b.st_cse <- b.st_cse + 1;
              op
            | None ->
              b.st_decomposed <- b.st_decomposed + 1;
              let r = fresh b (U256.of_bytes_be digest) in
              emit b (I.Sha256 (r, pieces));
              Hashtbl.replace b.cse key (I.Reg r);
              I.Reg r
          in
          match op with
          | I.Reg r -> Array.init 32 (fun i -> B_reg (r, i))
          | I.Const v -> bytes_as_srcs (U256.to_bytes_be v)
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
        stack = [];
        mem = Hashtbl.create 64;
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
    if n > 0 then mem_write_bytes parent.mem out_off (Array.sub result 0 n)
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
      | Some t when Hashtbl.mem t.t_addr_ops k -> Hashtbl.find t.t_addr_ops k
      | Some _ | None -> I.Const (Address.to_u256 (Address.of_bytes k))
    in
    AKey.iter
      (fun k op ->
        if AKey.mem k b.world.balance_dirty then add (I.W_balance_set (balance_addr_op k, op)))
      b.world.balances;
    (* pure deltas for addresses never read: fold constants into one add
       (wrap-around makes subtraction an addition of the complement) *)
    AKey.iter
      (fun k ds ->
        let addr_op = I.Const (Address.to_u256 (Address.of_bytes k)) in
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
    let seen = Hashtbl.create 16 in
    List.iter
      (fun k ->
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          let addr_bytes, key_bytes = k in
          let addr = Address.of_bytes addr_bytes in
          let value = SKey.find k b.world.storage in
          let dyn_key =
            match b.tmpl with
            | Some t -> (
              match Hashtbl.find_opt t.t_skey_first k with
              | Some (I.Reg _ as op) -> Some op
              | Some (I.Const _) | None -> None)
            | None -> None
          in
          match dyn_key with
          | Some key_op -> add (I.W_storage_dyn (addr, key_op, value))
          | None -> add (I.W_storage (addr, U256.of_bytes_be key_bytes, value))
        end)
      b.world.storage_dirty;
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
      let scheduled = Opt.schedule (List.rev b.instrs) writes output_pieces in
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
      let upfront = Evm.Processor.upfront_cost tx in
      let purchase_traced = U256.mul (U256.of_int tx.gas_limit) tx.gas_price in
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
          b.frames <- [ top ];
          let i = ref 0 in
          let n = Array.length events in
          while !i < n do
            (match events.(!i) with
            | Evm.Trace.Step s -> do_step b s
            | Evm.Trace.Call_enter (s, info) -> (
              match do_call_enter b s info with
              | `Frame child -> b.frames <- child :: b.frames
              | `Instant (snapshot, retsrcs, out_off, out_len) -> (
                incr i;
                if !i >= n then raise (Unsupported "truncated trace");
                match events.(!i) with
                | Evm.Trace.Call_exit { success; _ } ->
                  let parent = cur b in
                  if not success then b.world <- snapshot;
                  let result = if success then retsrcs else [||] in
                  let m = min (Array.length result) out_len in
                  if m > 0 then mem_write_bytes parent.mem out_off (Array.sub result 0 m);
                  parent.retdata <- result;
                  spush b (I.Const (if success then U256.one else U256.zero))
                | Evm.Trace.Step _ | Evm.Trace.Call_enter _ ->
                  raise (Unsupported "instant call not followed by exit")))
            | Evm.Trace.Call_exit { success; output; _ } -> (
              match b.frames with
              | child :: (_ :: _ as rest) ->
                b.frames <- rest;
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
            stack = [];
            mem = Hashtbl.create 64;
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
              | None -> bytes_as_srcs tx.data
              | Some t ->
                (* selector bytes are template-key-pinned constants; every
                   byte past offset 4 aliases a calldata-word input register *)
                Array.init (String.length tx.data) (fun i ->
                    if i < 4 then B_const tx.data.[i]
                    else B_reg (t.t_words.((i - 4) / 32), (i - 4) mod 32))
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
                  pieces_of_srcs result
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
                let deployed = pieces_of_srcs result in
                ( [ I.P_const (Address.to_bytes new_addr) ],
                  [ I.W_nonce_set (new_addr, 1); I.W_code (new_addr, deployed) ] )
              | Some `Revert | None -> (pieces_of_srcs result, [])
            end
        in
        (* sanity: materialized output must equal the traced output *)
        let materialized = I.bytes_of_pieces b.reg_vals output_pieces in
        if not (String.equal materialized receipt.output) then
          raise (Unsupported "output mismatch");
        finish_path ~extra_writes output_pieces
    end
  with Unsupported msg -> Error msg
