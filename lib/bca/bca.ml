(* Bytecode abstract interpretation (DESIGN.md §14): CFG recovery, stack
   constant propagation and access-footprint inference over the decoded
   instruction stream, run once per code hash x spec and cached alongside
   the Decode artifact.

   The analysis is a classic worklist fixpoint over basic blocks.  The
   abstract stack tracks constants (for PUSH;JUMP resolution and storage
   keys), the frame's own address, its caller, and a calldata taint mask;
   memory, storage and returndata are collapsed to one taint word each.
   Everything the domains cannot bound — escaping jumps stepped under an
   unknown stack, CREATE, SELFDESTRUCT, calls to symbolic targets —
   collapses to the wild footprint, which is trivially sound. *)

open State

type target = T_const of Address.t | T_self | T_caller | T_top

type call_site = { c_target : target; c_value_maybe : bool; c_keeps_self : bool }

type facts = {
  f_hash : string;
  f_spec : int;
  f_wild : bool;
  f_slots_r : U256.t list;
  f_slots_r_wild : bool;
  f_slots_w : U256.t list;
  f_slots_w_wild : bool;
  f_bal_reads : target list;
  f_code_reads : target list;
  f_calls : call_site list;
  f_call_top : bool;
  f_cf_words : int;
  f_cf_top : bool;
  f_reads_selector : bool;
  f_uses_gas : bool;
  f_n_blocks : int;
  f_n_reachable : int;
  f_resolved_jumps : int;
  f_escaping_jumps : int;
}

type narrowing = N_cfg | N_stack | N_footprint | N_calldata

let seeded_narrowing : narrowing option ref = ref None

let narrowing_name = function
  | N_cfg -> "cfg"
  | N_stack -> "stack"
  | N_footprint -> "footprint"
  | N_calldata -> "calldata"

(* ---- taint masks: bit k = calldata word k (ABI argument k, bytes
   [4+32k, 4+32k+32)); bit 61 = some statically unknown calldata. ---- *)

let unknown_bit = 1 lsl 61
let word_bit k = if k >= 0 && k < 61 then 1 lsl k else unknown_bit

(* Words overlapping the byte range [o, o+len) of calldata. *)
let words_of_range o len =
  if len <= 0 then 0
  else begin
    let m = ref 0 in
    let k0 = max 0 ((o - 35) / 32) in
    let k1 = (o + len + 27) / 32 in
    for k = k0 to min k1 (k0 + 64) do
      let ws = 4 + (32 * k) in
      if ws < o + len && ws + 32 > o then m := !m lor word_bit k
    done;
    if k1 > k0 + 64 then m := !m lor unknown_bit;
    !m
  end

(* ---- abstract values and stacks ---- *)

type av = Const of U256.t | Self | Caller | V of int

let taint_of = function V m -> m | Const _ | Self | Caller -> 0

let eq_av a b =
  match (a, b) with
  | Const x, Const y -> U256.equal x y
  | Self, Self | Caller, Caller -> true
  | V m, V n -> m = n
  | _ -> false

let join_av a b = if eq_av a b then a else V (taint_of a lor taint_of b)

type ast = Stack of av list (* top first *) | TopSt

let eq_ast a b =
  match (a, b) with
  | TopSt, TopSt -> true
  | Stack x, Stack y -> List.length x = List.length y && List.for_all2 eq_av x y
  | _ -> false

let join_ast a b =
  match (a, b) with
  | TopSt, _ | _, TopSt -> TopSt
  | Stack x, Stack y ->
    if List.length x <> List.length y then TopSt else Stack (List.map2 join_av x y)

(* ---- the accumulator the walk writes into ---- *)

type acc = {
  mutable a_wild : bool;
  mutable a_slots_r : U256.t list;
  mutable a_slots_r_wild : bool;
  mutable a_slots_w : U256.t list;
  mutable a_slots_w_wild : bool;
  mutable a_bal : target list;
  mutable a_code : target list;
  mutable a_calls : call_site list;
  mutable a_call_top : bool;
  mutable a_cf : int;
  mutable a_cf_top : bool;
  mutable a_sel : bool;
  mutable a_gas : bool;
  mutable a_mem : int;  (* taint of memory contents, coarse *)
  mutable a_sto : int;  (* taint of self-storage contents, coarse *)
  mutable a_ret : int;  (* taint of returndata, coarse *)
}

let add_slot l k = if List.exists (U256.equal k) l then l else k :: l

let add_target l t =
  let eq a b =
    match (a, b) with
    | T_const x, T_const y -> Address.equal x y
    | T_self, T_self | T_caller, T_caller | T_top, T_top -> true
    | _ -> false
  in
  if List.exists (eq t) l then l else t :: l

let target_of = function
  | Const v -> T_const (Address.of_u256 v)
  | Self -> T_self
  | Caller -> T_caller
  | V _ -> T_top

(* A JUMPI condition's taint reaches control flow. *)
let note_cf acc m =
  if !seeded_narrowing <> Some N_calldata then begin
    acc.a_cf <- acc.a_cf lor (m land lnot unknown_bit);
    if m land unknown_bit <> 0 then acc.a_cf_top <- true
  end

let note_selector acc = if !seeded_narrowing <> Some N_calldata then acc.a_sel <- true

let note_sstore_key acc = function
  | Const k -> if !seeded_narrowing <> Some N_footprint then acc.a_slots_w <- add_slot acc.a_slots_w k
  | _ -> if !seeded_narrowing <> Some N_footprint then acc.a_slots_w_wild <- true

let note_sload_key acc = function
  | Const k -> acc.a_slots_r <- add_slot acc.a_slots_r k
  | _ -> acc.a_slots_r_wild <- true

(* ---- one abstract step ----

   [flow] is what the block walker does next.  Jump targets are absolute
   pcs, already popped off the abstract stack. *)

type flow =
  | F_next
  | F_halt
  | F_jump of int  (* constant JUMP target *)
  | F_branch of int option  (* JUMPI: constant target, None = untaken constant cond *)
  | F_branch_fall  (* JUMPI statically untaken *)
  | F_esc_jump
  | F_esc_branch

exception Underflow

let step acc (st : av list) (i : Evm.Decode.instr) : av list * flow =
  let pop = function [] -> raise Underflow | x :: tl -> (x, tl) in
  let popn n st =
    let rec go n st acc = if n = 0 then (List.rev acc, st) else
      match st with [] -> raise Underflow | x :: tl -> go (n - 1) tl (x :: acc)
    in
    go n st []
  in
  let open Evm in
  match i.Decode.op with
  | _ when Decode.meta_steps i.Decode.meta = 0 -> (st, F_halt) (* unassigned / fork-unavailable *)
  | Op.STOP | Op.RETURN | Op.REVERT | Op.INVALID -> (st, F_halt)
  | Op.SELFDESTRUCT ->
    acc.a_wild <- true;
    (st, F_halt)
  | Op.JUMPDEST -> (st, F_next)
  | Op.PUSH _ -> (Const i.Decode.imm :: st, F_next)
  | Op.POP ->
    let _, st = pop st in
    (st, F_next)
  | Op.DUP n ->
    if List.length st < n then raise Underflow;
    let v = if !seeded_narrowing = Some N_stack then Const U256.zero else List.nth st (n - 1) in
    (v :: st, F_next)
  | Op.SWAP n ->
    if List.length st < n + 1 then raise Underflow;
    let a = Array.of_list st in
    let t = a.(0) in
    a.(0) <- a.(n);
    a.(n) <- t;
    (Array.to_list a, F_next)
  | Op.JUMP -> (
    let t, st = pop st in
    match t with
    | Const d -> (
      match U256.to_int_opt d with Some d -> (st, F_jump d) | None -> (st, F_halt))
    | _ -> (st, F_esc_jump))
  | Op.JUMPI -> (
    let t, st = pop st in
    let cond, st = pop st in
    note_cf acc (taint_of cond);
    let taken =
      match t with Const d -> U256.to_int_opt d | _ -> None
    in
    match (taken, cond) with
    | Some d, Const c -> (st, if U256.is_zero c then F_branch_fall else F_branch (Some d))
    | Some d, _ -> (st, F_branch (Some d))
    | None, Const _ when (match t with Const _ -> false | _ -> true) -> (st, F_esc_branch)
    | None, _ -> (
      match t with
      | Const _ -> (st, F_branch None) (* huge constant target: taken edge fails *)
      | _ -> (st, F_esc_branch)))
  | Op.SLOAD ->
    let k, st = pop st in
    note_sload_key acc k;
    (V (acc.a_sto lor taint_of k) :: st, F_next)
  | Op.SSTORE ->
    let k, st = pop st in
    let v, st = pop st in
    note_sstore_key acc k;
    acc.a_sto <- acc.a_sto lor taint_of v lor taint_of k;
    (st, F_next)
  | Op.ADDRESS -> (Self :: st, F_next)
  | Op.CALLER -> (Caller :: st, F_next)
  | Op.BALANCE ->
    let a, st = pop st in
    acc.a_bal <- add_target acc.a_bal (target_of a);
    (V 0 :: st, F_next)
  | Op.SELFBALANCE ->
    acc.a_bal <- add_target acc.a_bal T_self;
    (V 0 :: st, F_next)
  | Op.EXTCODESIZE | Op.EXTCODEHASH ->
    let a, st = pop st in
    acc.a_code <- add_target acc.a_code (target_of a);
    (V 0 :: st, F_next)
  | Op.EXTCODECOPY ->
    let a, st = pop st in
    let _, st = popn 3 st in
    acc.a_code <- add_target acc.a_code (target_of a);
    (st, F_next)
  | Op.GAS ->
    acc.a_gas <- true;
    (V 0 :: st, F_next)
  | Op.CALLDATALOAD -> (
    let off, st = pop st in
    match off with
    | Const o -> (
      match U256.to_int_opt o with
      | Some o ->
        if o < 4 then note_selector acc;
        let m = if !seeded_narrowing = Some N_calldata then 0 else words_of_range o 32 in
        (V m :: st, F_next)
      | None -> (Const U256.zero :: st, F_next) (* beyond any calldata: zero *))
    | _ ->
      note_selector acc;
      let m = if !seeded_narrowing = Some N_calldata then 0 else unknown_bit in
      (V m :: st, F_next))
  | Op.CALLDATACOPY ->
    let args, st = popn 3 st in
    (match args with
    | [ _dst; src; len ] ->
      let m =
        match (src, len) with
        | Const s, Const l -> (
          match (U256.to_int_opt s, U256.to_int_opt l) with
          | Some s, Some l ->
            if s < 4 && l > 0 then note_selector acc;
            words_of_range s l
          | _ -> 0 (* an offset/len beyond int range out-of-gases or copies zero bytes *))
        | _ ->
          note_selector acc;
          unknown_bit
      in
      acc.a_mem <- acc.a_mem lor (if !seeded_narrowing = Some N_calldata then 0 else m)
    | _ -> ());
    (st, F_next)
  | Op.CALLDATASIZE -> (V 0 :: st, F_next)
  | Op.MLOAD ->
    let off, st = pop st in
    (V (acc.a_mem lor taint_of off) :: st, F_next)
  | Op.MSTORE | Op.MSTORE8 ->
    let _off, st = pop st in
    let v, st = pop st in
    acc.a_mem <- acc.a_mem lor taint_of v;
    (st, F_next)
  | Op.SHA3 ->
    let args, st = popn 2 st in
    let t = List.fold_left (fun m a -> m lor taint_of a) acc.a_mem args in
    (V t :: st, F_next)
  | Op.CODECOPY ->
    let _, st = popn 3 st in
    (st, F_next)
  | Op.RETURNDATACOPY ->
    let _, st = popn 3 st in
    acc.a_mem <- acc.a_mem lor acc.a_ret;
    (st, F_next)
  | Op.RETURNDATASIZE -> (V acc.a_ret :: st, F_next)
  | Op.LOG n ->
    let _, st = popn (n + 2) st in
    (st, F_next)
  | Op.CREATE | Op.CREATE2 ->
    acc.a_wild <- true;
    let _, st = popn (Op.stack_in i.Decode.op) st in
    (V 0 :: st, F_next)
  | Op.CALL | Op.CALLCODE | Op.DELEGATECALL | Op.STATICCALL ->
    let args, st = popn (Op.stack_in i.Decode.op) st in
    let tgt, value =
      match (i.Decode.op, args) with
      | Op.CALL, [ _g; t; v; _; _; _; _ ] | Op.CALLCODE, [ _g; t; v; _; _; _; _ ] ->
        (t, Some v)
      | _, _g :: t :: _ -> (t, None)
      | _ -> (V unknown_bit, None)
    in
    let value_maybe =
      match (i.Decode.op, value) with
      | Op.CALL, Some (Const v) | Op.CALLCODE, Some (Const v) -> not (U256.is_zero v)
      | Op.CALL, Some _ | Op.CALLCODE, Some _ -> true
      | _ -> false
    in
    let keeps_self = i.Decode.op = Op.CALLCODE || i.Decode.op = Op.DELEGATECALL in
    (match target_of tgt with
    | T_top -> acc.a_call_top <- true
    | t -> acc.a_calls <- { c_target = t; c_value_maybe = value_maybe; c_keeps_self = keeps_self } :: acc.a_calls);
    (* data flowing through the call: passed memory may steer the callee's
       control flow, and the result/returndata inherit the argument taint *)
    let argt = List.fold_left (fun m a -> m lor taint_of a) 0 args in
    note_cf acc (acc.a_mem lor argt);
    acc.a_ret <- acc.a_ret lor acc.a_mem lor argt;
    (V (acc.a_mem lor argt) :: st, F_next)
  | op -> (
    (* arithmetic / comparisons / env reads: fold constants through the
       S-EVM evaluator, otherwise join taints *)
    let si = Op.stack_in i.Decode.op and so = Op.stack_out i.Decode.op in
    let args, st = popn si st in
    match Sevm.Ir.compute_op_of_evm op with
    | Some c ->
      let consts =
        List.fold_left
          (fun ok a -> match a with Const _ -> ok | _ -> false)
          true args
      in
      let v =
        if consts && args <> [] then
          let arg i = match List.nth_opt args i with Some (Const x) -> x | _ -> U256.zero in
          Const (Sevm.Ir.eval_compute c (arg 0) (arg 1) (arg 2))
        else V (List.fold_left (fun m a -> m lor taint_of a) 0 args)
      in
      (v :: st, F_next)
    | None ->
      let t = List.fold_left (fun m a -> m lor taint_of a) 0 args in
      let rec pushk n st = if n = 0 then st else pushk (n - 1) (V t :: st) in
      (pushk so st, F_next))

(* The fully-unknown step, used once the abstract stack is TopSt: record
   the conservative contribution of the opcode and carry on. *)
let step_top acc (i : Evm.Decode.instr) : flow =
  let open Evm in
  match i.Decode.op with
  | _ when Decode.meta_steps i.Decode.meta = 0 -> F_halt
  | Op.STOP | Op.RETURN | Op.REVERT | Op.INVALID -> F_halt
  | Op.SELFDESTRUCT ->
    acc.a_wild <- true;
    F_halt
  | Op.JUMP -> F_esc_jump
  | Op.JUMPI ->
    note_cf acc unknown_bit;
    F_esc_branch
  | Op.SLOAD ->
    acc.a_slots_r_wild <- true;
    F_next
  | Op.SSTORE ->
    note_sstore_key acc (V unknown_bit);
    acc.a_sto <- acc.a_sto lor unknown_bit;
    F_next
  | Op.BALANCE ->
    acc.a_bal <- add_target acc.a_bal T_top;
    F_next
  | Op.SELFBALANCE ->
    acc.a_bal <- add_target acc.a_bal T_self;
    F_next
  | Op.EXTCODESIZE | Op.EXTCODEHASH | Op.EXTCODECOPY ->
    acc.a_code <- add_target acc.a_code T_top;
    F_next
  | Op.GAS ->
    acc.a_gas <- true;
    F_next
  | Op.CALLDATALOAD | Op.CALLDATACOPY ->
    note_selector acc;
    if !seeded_narrowing <> Some N_calldata then acc.a_mem <- acc.a_mem lor unknown_bit;
    F_next
  | Op.CREATE | Op.CREATE2 ->
    acc.a_wild <- true;
    F_next
  | Op.CALL | Op.CALLCODE | Op.DELEGATECALL | Op.STATICCALL ->
    acc.a_call_top <- true;
    note_cf acc (acc.a_mem lor unknown_bit);
    acc.a_ret <- acc.a_ret lor unknown_bit;
    F_next
  | Op.RETURNDATACOPY ->
    acc.a_mem <- acc.a_mem lor acc.a_ret;
    F_next
  | Op.MSTORE | Op.MSTORE8 ->
    acc.a_mem <- acc.a_mem lor unknown_bit;
    F_next
  | _ -> F_next

(* ---- the fixpoint ---- *)

let obs_analyses = Obs.counter "bca.analyses"
let obs_wild = Obs.counter "bca.wild"
let obs_predicts = Obs.counter "bca.predicts"

let widen_cap = 48
let step_budget = 400_000

let analyze ~(spec : Spec.t) (p : Evm.Decode.program) : facts =
  Obs.incr obs_analyses;
  let instrs = p.Evm.Decode.instrs in
  let n = Array.length instrs in
  let jd = p.Evm.Decode.jumpdests in
  let leaders = p.Evm.Decode.leaders in
  let n_blocks = Array.fold_left (fun a b -> if b then a + 1 else a) 0 leaders in
  let acc =
    {
      a_wild = false;
      a_slots_r = [];
      a_slots_r_wild = false;
      a_slots_w = [];
      a_slots_w_wild = false;
      a_bal = [];
      a_code = [];
      a_calls = [];
      a_call_top = false;
      a_cf = 0;
      a_cf_top = false;
      a_sel = false;
      a_gas = false;
      a_mem = 0;
      a_sto = 0;
      a_ret = 0;
    }
  in
  let states : (int, ast) Hashtbl.t = Hashtbl.create 16 in
  let visits : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let jump_sites : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let work = Queue.create () in
  let budget = ref step_budget in
  let all_jumpdests =
    lazy
      (let l = ref [] in
       for pc = n - 1 downto 0 do
         if jd.(pc) then l := pc :: !l
       done;
       !l)
  in
  let schedule pc st =
    if pc >= 0 && pc < n then begin
      let st = if (Hashtbl.find_opt visits pc |> Option.value ~default:0) > widen_cap then TopSt else st in
      match Hashtbl.find_opt states pc with
      | None ->
        Hashtbl.replace states pc st;
        Queue.push pc work
      | Some old ->
        let j = join_ast old st in
        if not (eq_ast j old) then begin
          Hashtbl.replace states pc j;
          Queue.push pc work
        end
    end
  in
  if n > 0 then schedule 0 (Stack []);
  let escape_to_all st =
    List.iter (fun d -> schedule d st) (Lazy.force all_jumpdests)
  in
  let run_block pc0 =
    Hashtbl.replace visits pc0 (1 + (Hashtbl.find_opt visits pc0 |> Option.value ~default:0));
    let st0 = match Hashtbl.find_opt states pc0 with Some s -> s | None -> Stack [] in
    let pc = ref pc0 in
    let st = ref st0 in
    let continue_ = ref true in
    while !continue_ do
      if !pc >= n then continue_ := false (* running off the end returns *)
      else if !pc <> pc0 && leaders.(!pc) then begin
        schedule !pc !st;
        continue_ := false
      end
      else begin
        decr budget;
        if !budget < 0 then begin
          acc.a_wild <- true;
          continue_ := false;
          Queue.clear work
        end
        else begin
          let i = instrs.(!pc) in
          let note_jump resolved =
            let old = Hashtbl.find_opt jump_sites !pc |> Option.value ~default:false in
            Hashtbl.replace jump_sites !pc (old || resolved)
          in
          let fl =
            match !st with
            | TopSt -> step_top acc i
            | Stack s -> (
              try
                let s', fl = step acc s i in
                st := Stack s';
                fl
              with Underflow ->
                (* this path underflows at runtime: the frame fails here *)
                F_halt)
          in
          match fl with
          | F_next -> pc := i.Evm.Decode.next
          | F_halt -> continue_ := false
          | F_jump d ->
            note_jump true;
            if d < n && jd.(d) then schedule d !st;
            continue_ := false
          | F_branch taken ->
            note_jump true;
            (match taken with
            | Some d when d < n && jd.(d) && !seeded_narrowing <> Some N_cfg ->
              schedule d !st
            | _ -> ());
            pc := i.Evm.Decode.next
          | F_branch_fall ->
            note_jump true;
            pc := i.Evm.Decode.next
          | F_esc_jump ->
            note_jump false;
            escape_to_all TopSt;
            continue_ := false
          | F_esc_branch ->
            note_jump false;
            if !seeded_narrowing <> Some N_cfg then escape_to_all TopSt;
            pc := i.Evm.Decode.next
        end
      end
    done
  in
  (* outer loop: the coarse memory/storage/returndata taints grow
     monotonically, so re-run the worklist until they stabilize *)
  let stable = ref false in
  let passes = ref 0 in
  while not !stable do
    incr passes;
    let snap = (acc.a_mem, acc.a_sto, acc.a_ret, acc.a_wild) in
    while not (Queue.is_empty work) do
      run_block (Queue.pop work)
    done;
    if snap = (acc.a_mem, acc.a_sto, acc.a_ret, acc.a_wild) || !passes > 8 then begin
      if !passes > 8 then acc.a_wild <- true;
      stable := true
    end
    else Hashtbl.iter (fun pc _ -> Queue.push pc work) states
  done;
  let resolved = Hashtbl.fold (fun _ r a -> if r then a + 1 else a) jump_sites 0 in
  let escaping = Hashtbl.length jump_sites - resolved in
  if escaping > 0 && acc.a_call_top = false && acc.a_wild = false then begin
    (* an escaping jump under a known stack still visits only jumpdest
       blocks, which the walk covered with TopSt states — sound, but the
       calldata facts must go conservative: the escaped-to code may do
       anything the TopSt walk recorded (it did), nothing extra needed. *)
    ()
  end;
  if acc.a_wild then Obs.incr obs_wild;
  (* normalize: wild implies every other domain is unknown *)
  let wild = acc.a_wild in
  {
    f_hash = p.Evm.Decode.code_hash;
    f_spec = spec.Spec.id;
    f_wild = wild;
    f_slots_r = acc.a_slots_r;
    f_slots_r_wild = acc.a_slots_r_wild || wild;
    f_slots_w = acc.a_slots_w;
    f_slots_w_wild = acc.a_slots_w_wild || wild;
    f_bal_reads = acc.a_bal;
    f_code_reads = acc.a_code;
    f_calls = acc.a_calls;
    f_call_top = acc.a_call_top || wild;
    f_cf_words = acc.a_cf;
    f_cf_top = acc.a_cf_top || wild;
    f_reads_selector = acc.a_sel || wild;
    f_uses_gas = acc.a_gas || wild;
    f_n_blocks = n_blocks;
    f_n_reachable = Hashtbl.length states;
    f_resolved_jumps = resolved;
    f_escaping_jumps = escaping;
  }

(* ---- the process-wide facts cache (same keying and bound as the decode cache) ---- *)

let cache : (string, facts) Lru.t = Lru.create ~name:"bca.cache" 4096
let cache_mu = Mutex.create ()
let analyze_code spec hash code = analyze ~spec (Evm.Decode.get ~hash ~spec code)

(* A seeded narrowing bypasses the cache both ways so mutated facts never
   leak into or out of it. *)
let facts_for ~(spec : Spec.t) ~hash code =
  if !seeded_narrowing <> None then analyze_code spec hash code
  else Lru.memo cache_mu cache (Evm.Decode.cache_key ~hash ~spec) analyze_code spec hash code

let cache_size () = Mutex.protect cache_mu (fun () -> Lru.length cache)
let clear_cache () = Mutex.protect cache_mu (fun () -> Lru.clear cache)

(* ---- per-transaction concretization ---- *)

type prediction = {
  p_wild : bool;
  p_r_accounts : Address.t list;
  p_w_accounts : Address.t list;
  p_codes : Address.t list;
  p_r_slots : (Address.t * U256.t) list;
  p_w_slots : (Address.t * U256.t) list;
  p_r_slot_wild : Address.t list;
  p_w_slot_wild : Address.t list;
}

let wild_prediction =
  {
    p_wild = true;
    p_r_accounts = [];
    p_w_accounts = [];
    p_codes = [];
    p_r_slots = [];
    p_w_slots = [];
    p_r_slot_wild = [];
    p_w_slot_wild = [];
  }

let max_call_depth = 6

(* The code at [a] with the account's stored hash, or [None] for codeless
   accounts and precompiles. *)
let code_at st a =
  if Evm.Interp.is_precompile a then None
  else
    match Statedb.get_code st a with
    | "" -> None
    | code -> Some (Statedb.get_code_hash st a, code)

let predict_tx ~(spec : Spec.t) ~coinbase st (tx : Evm.Env.tx) : prediction =
  Obs.incr obs_predicts;
  match tx.Evm.Env.to_ with
  | None -> wild_prediction
  | Some tx_target ->
    let wild = ref false in
    let r_acc = ref [] and w_acc = ref [] and codes = ref [] in
    let r_slots = ref [] and w_slots = ref [] in
    let r_sw = ref [] and w_sw = ref [] in
    let add_addr l a = if List.exists (Address.equal a) !l then () else l := a :: !l in
    let add_kslot l a k =
      if List.exists (fun (a', k') -> Address.equal a a' && U256.equal k k') !l then ()
      else l := (a, k) :: !l
    in
    add_addr r_acc tx.Evm.Env.sender;
    add_addr w_acc tx.Evm.Env.sender;
    add_addr r_acc coinbase;
    add_addr w_acc coinbase;
    add_addr r_acc tx_target;
    add_addr codes tx_target;
    if not (U256.is_zero tx.Evm.Env.value) then add_addr w_acc tx_target;
    (* built at the first resolved call edge: most targets are codeless *)
    let visited = ref None in
    let first_visit key =
      let tbl =
        match !visited with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 8 in
          visited := Some tbl;
          tbl
      in
      if Hashtbl.mem tbl key then false
      else begin
        Hashtbl.replace tbl key ();
        true
      end
    in
    let resolve ~self ~caller = function
      | T_const a -> Some a
      | T_self -> Some self
      | T_caller -> Some caller
      | T_top -> None
    in
    let rec frame ~self ~caller ~depth (hash, code) =
      let f = facts_for ~spec ~hash code in
      if f.f_wild then wild := true
      else begin
        List.iter (fun k -> add_kslot r_slots self k) f.f_slots_r;
        List.iter (fun k -> add_kslot w_slots self k) f.f_slots_w;
        if f.f_slots_r_wild then add_addr r_sw self;
        if f.f_slots_w_wild then add_addr w_sw self;
        List.iter
          (fun t ->
            match resolve ~self ~caller t with
            | Some a -> add_addr r_acc a
            | None -> wild := true)
          f.f_bal_reads;
        List.iter
          (fun t ->
            match resolve ~self ~caller t with
            | Some a ->
              add_addr codes a;
              add_addr r_acc a
            | None -> wild := true)
          f.f_code_reads;
        if f.f_call_top then wild := true;
        List.iter
          (fun c ->
            match resolve ~self ~caller c.c_target with
            | None -> wild := true
            | Some a ->
              add_addr r_acc a;
              add_addr codes a;
              if c.c_value_maybe then begin
                add_addr w_acc a;
                add_addr w_acc self
              end;
              let child_self = if c.c_keeps_self then self else a in
              let key = Address.to_bytes child_self ^ Address.to_bytes a in
              if first_visit key then begin
                match code_at st a with
                | None -> () (* no code / precompile: nothing more to touch *)
                | Some child ->
                  if depth >= max_call_depth then wild := true
                  else frame ~self:child_self ~caller:self ~depth:(depth + 1) child
              end)
          f.f_calls
      end
    in
    (match code_at st tx_target with
    | None -> () (* codeless target: pure transfer, base sets suffice *)
    | Some target -> frame ~self:tx_target ~caller:tx.Evm.Env.sender ~depth:0 target);
    if !wild then wild_prediction
    else
      {
        p_wild = false;
        p_r_accounts = !r_acc;
        p_w_accounts = !w_acc;
        p_codes = !codes;
        p_r_slots = !r_slots;
        p_w_slots = !w_slots;
        p_r_slot_wild = !r_sw;
        p_w_slot_wild = !w_sw;
      }

(* Transitive GAS-reachability for lib/apstore's key decision.  A GAS in a
   constant-target callee is invisible in the top-level code's own facts
   (unlike calldata flows, it does not pass through a caller-side opcode),
   so the key must chase resolved call edges before it may un-pin the gas
   components.  Conservative: anything unresolved counts as gas-using.
   [T_self]/[T_caller] edges re-enter code already on the analyzed chain
   (the depth-0 caller is the code-less sender), so only constant targets
   recurse. *)
let uses_gas_deep ~(spec : Spec.t) st (target : Address.t) : bool =
  match code_at st target with
  | None -> false
  | Some top ->
    let exception Deep in
    let visited = Hashtbl.create 8 in
    let rec frame ~depth (hash, code) =
      let f = facts_for ~spec ~hash code in
      if f.f_wild || f.f_uses_gas || f.f_call_top then raise Deep;
      List.iter
        (fun c ->
          match c.c_target with
          | T_self | T_caller -> ()
          | T_top -> raise Deep
          | T_const a ->
            let key = Address.to_bytes a in
            if not (Hashtbl.mem visited key) then begin
              Hashtbl.replace visited key ();
              match code_at st a with
              | None -> ()
              | Some child ->
                if depth >= max_call_depth then raise Deep
                else frame ~depth:(depth + 1) child
            end)
        f.f_calls
    in
    (try
       frame ~depth:0 top;
       false
     with Deep -> true)

let mem_addr l a = List.exists (Address.equal a) l
let mem_slot l a k = List.exists (fun (a', k') -> Address.equal a a' && U256.equal k k') l

let covers_touch p (t : Statedb.touch) =
  p.p_wild
  ||
  match t with
  | Statedb.T_account a -> mem_addr p.p_r_accounts a || mem_addr p.p_w_accounts a
  | Statedb.T_code a -> mem_addr p.p_codes a
  | Statedb.T_slot (a, k) ->
    mem_slot p.p_r_slots a k || mem_slot p.p_w_slots a k || mem_addr p.p_r_slot_wild a
    || mem_addr p.p_w_slot_wild a

let covers_change p (c : Statedb.change) =
  p.p_wild
  ||
  let a = c.Statedb.ch_addr in
  (c.Statedb.ch_balance = None || mem_addr p.p_w_accounts a)
  && (c.Statedb.ch_nonce = None || mem_addr p.p_w_accounts a)
  && c.Statedb.ch_code_hash = None && not c.Statedb.ch_destructed
  && (c.Statedb.ch_created = false || mem_addr p.p_w_accounts a)
  && List.for_all
       (fun (k, _) -> mem_slot p.p_w_slots a k || mem_addr p.p_w_slot_wild a)
       c.Statedb.ch_slots

(* ---- the conflict set of parallel apply ----

   Two footprints may conflict when one's writes meet the other's reads or
   writes: an account, an exact slot, a slot-wild owner against any slot of
   that owner.  Every such test pairs one element of each side, so testing
   a footprint against the union of earlier ones is testing it against each
   of them.  The union keeps one flag word per address and one written bit
   per exact slot; a test or an insertion costs O(footprint).  The static
   partition folds in predictions; the commit loop folds in committed
   change records and tests a speculation's touch log against them. *)

module Union = struct
  (* per-address flags *)
  let f_acct = 1 (* account read or written *)
  let f_acct_w = 2 (* account written *)
  let f_sw = 4 (* any slot read or written *)
  let f_sw_w = 8 (* any slot written *)
  let f_owner = 16 (* owns an exact slot read or written *)
  let f_owner_w = 32 (* owns an exact slot written *)
  let f_code_w = 64 (* code written *)

  type t = { addrs : int Address.Tbl.t; slots : bool Slot.Tbl.t (* slot -> written *) }

  let create () = { addrs = Address.Tbl.create 256; slots = Slot.Tbl.create 256 }

  let flags u a = Option.value ~default:0 (Address.Tbl.find_opt u.addrs a)
  let has u a f = flags u a land f <> 0
  let mark u a f = Address.Tbl.replace u.addrs a (flags u a lor f)

  (* a write meets an earlier read or write; a read meets an earlier write *)
  let overlaps u p =
    p.p_wild
    || List.exists (fun a -> has u a f_acct) p.p_w_accounts
    || List.exists (fun a -> has u a f_acct_w) p.p_r_accounts
    || List.exists (fun ((a, _) as s) -> Slot.Tbl.mem u.slots s || has u a f_sw) p.p_w_slots
    || List.exists
         (fun ((a, _) as s) -> Slot.Tbl.find_opt u.slots s = Some true || has u a f_sw_w)
         p.p_r_slots
    || List.exists (fun a -> has u a (f_sw lor f_owner)) p.p_w_slot_wild
    || List.exists (fun a -> has u a (f_sw_w lor f_owner_w)) p.p_r_slot_wild

  let add u p =
    if not p.p_wild then begin
      List.iter (fun a -> mark u a f_acct) p.p_r_accounts;
      List.iter (fun a -> mark u a (f_acct lor f_acct_w)) p.p_w_accounts;
      List.iter
        (fun ((a, _) as s) ->
          if not (Slot.Tbl.mem u.slots s) then Slot.Tbl.replace u.slots s false;
          mark u a f_owner)
        p.p_r_slots;
      List.iter
        (fun ((a, _) as s) ->
          Slot.Tbl.replace u.slots s true;
          mark u a (f_owner lor f_owner_w))
        p.p_w_slots;
      List.iter (fun a -> mark u a f_sw) p.p_r_slot_wild;
      List.iter (fun a -> mark u a (f_sw lor f_sw_w)) p.p_w_slot_wild
    end

  (* a destruct writes the account, its code and, as a slot wildcard,
     every slot it owns *)
  let add_changes u ~coinbase changes =
    List.iter
      (fun (ch : Statedb.change) ->
        let a = ch.ch_addr in
        if not (Address.equal a coinbase) then begin
          let d = ch.ch_destructed in
          let f =
            (if ch.ch_balance <> None || ch.ch_nonce <> None || ch.ch_created || d then
               f_acct lor f_acct_w
             else 0)
            lor (if ch.ch_code_hash <> None || d then f_code_w else 0)
            lor (if d then f_sw lor f_sw_w else 0)
            lor (if ch.ch_slots <> [] then f_owner lor f_owner_w else 0)
          in
          if f <> 0 then mark u a f;
          List.iter (fun (k, _) -> Slot.Tbl.replace u.slots (a, k) true) ch.ch_slots
        end)
      changes

  let reads_written u touches =
    List.exists
      (function
        | Statedb.T_account a -> has u a f_acct_w
        | Statedb.T_code a -> has u a f_code_w
        | Statedb.T_slot (a, k) ->
          has u a f_sw_w || Slot.Tbl.find_opt u.slots (a, k) = Some true)
      touches
end
