(* Pre-decoded instruction streams (DESIGN.md §11).

   The legacy interpreter re-derived everything per step: opcode from the
   raw byte, stack arity from two [match]es, the static charge from a
   third, and PUSH immediates from a fresh 32-byte buffer.  Decoding runs
   that derivation once per code hash and stores the results in a flat
   array the hot loop indexes by pc.

   The decode is dense: every byte position gets the instruction that
   would execute if pc landed there, so the pc-to-instruction mapping is
   the identity and JUMP targets need no translation.  Positions inside
   PUSH data are decoded like any other byte — they are unreachable
   (sequential flow skips immediates, jumps validate against the
   JUMPDEST bitmap, which itself skips push data), but decoding them
   keeps the artifact total and position-independent. *)

type instr = {
  op_id : int;
  op : Op.t;
  imm : U256.t;
  imm_i : int;  (** [imm] as a native int, -1 if it does not fit *)
  static_gas : int;
  stack_in : int;
  max_sp : int;
  steps : int;
  next : int;
  xop : int;  (** untraced dispatch id: [op_id]; [0x100 + successor] for a
                  fused PUSH-op pair; [0x200 + successor] for a certified
                  DUP1-op pair; [0x300 + third] for a certified
                  PUSH-PUSH-op triple *)
  meta : int;  (** the scalar metadata above packed into one immediate:
                   bits 0..9 xop, 10..14 stack_in, 15..25 min(max_sp,2047),
                   26..40 static_gas, 41 steps — one load per untraced
                   dispatch instead of five *)
}

let pack_meta i =
  i.xop land 0x3ff
  lor (i.stack_in lsl 10)
  lor (min i.max_sp 2047 lsl 15)
  lor (i.static_gas lsl 26)
  lor (i.steps lsl 41)

let meta_xop m = m land 0x3ff
let meta_stack_in m = (m lsr 10) land 0x1f
let meta_max_sp m = (m lsr 15) land 0x7ff
let meta_static_gas m = (m lsr 26) land 0x7fff
let meta_steps m = (m lsr 41) land 1

type program = {
  code : string;
  code_hash : string;
  instrs : instr array;
  jumpdests : bool array;
  leaders : bool array;
}

let max_stack = 1024

(* Static charges come from the spec's byte-indexed table (DESIGN.md §12);
   the gas-table pin tests assert the Istanbul entries equal the literal
   Istanbul class charges.  Unavailable bytes charge 0, like unassigned
   ones. *)
let static_gas_of_byte (spec : Spec.t) b =
  if Spec.available spec b then Spec.static_gas spec b else 0

let analyze_jumpdests code =
  let n = String.length code in
  let a = Array.make n false in
  let i = ref 0 in
  while !i < n do
    let b = Char.code (String.unsafe_get code !i) in
    if b = 0x5b then a.(!i) <- true;
    if b >= 0x60 && b <= 0x7f then i := !i + (b - 0x5f);
    incr i
  done;
  a

(* PUSH immediate at [off], [len] bytes: the missing tail of a truncated
   PUSH reads as zero, exactly like the legacy loop's zero-padded load. *)
let imm_of code off len =
  let b = Bytes.make len '\000' in
  let n = String.length code in
  if off < n then Bytes.blit_string code off b 0 (min len (n - off));
  U256.of_bytes_be (Bytes.unsafe_to_string b)

(* Dispatch id for a byte that must raise [Invalid_opcode op_id]: 0x0c is
   permanently unassigned, so both tables keep their default raising
   handler there and the error payload comes from the instr's [op_id]. *)
let invalid_xop = 0x0c

let decode_at (spec : Spec.t) code pc =
  let b = Char.code (String.unsafe_get code pc) in
  match Op.of_byte b with
  | None ->
    (* Unassigned byte: permissive bounds so the dispatch table's invalid
       handler raises with no stack check, no charge and no step counted —
       the legacy loop's behaviour for bytes [Op.of_byte] rejects. *)
    { op_id = b; op = Op.INVALID; imm = U256.zero; imm_i = 0; static_gas = 0;
      stack_in = 0; max_sp = max_int; steps = 0; next = pc + 1; xop = b; meta = 0 }
  | Some _ when not (Spec.available spec b) ->
    (* Assigned byte not yet introduced under this fork: decoded exactly
       like an unassigned one, but dispatched through [invalid_xop] so the
       real handler installed at slot [b] is never reached.  [op_id] keeps
       the original byte for the failure payload. *)
    { op_id = b; op = Op.INVALID; imm = U256.zero; imm_i = 0; static_gas = 0;
      stack_in = 0; max_sp = max_int; steps = 0; next = pc + 1; xop = invalid_xop;
      meta = 0 }
  | Some op ->
    let si = Op.stack_in op and so = Op.stack_out op in
    let npush = Op.push_bytes op in
    let imm = if npush = 0 then U256.zero else imm_of code (pc + 1) npush in
    {
      op_id = b;
      op;
      imm;
      imm_i = (match U256.to_int_opt imm with Some n -> n | None -> -1);
      static_gas = Array.unsafe_get spec.Spec.static_gas b;
      stack_in = si;
      max_sp = max_stack - (so - si);
      steps = 1;
      next = pc + 1 + npush;
      xop = b;
      meta = 0;
    }

(* Successor opcodes a PUSH fuses with: the untraced decoded engine
   executes the pair in one dispatch through the 512-entry table (slot
   [0x100 + id]).  All of these consume at least the pushed word
   (stack_out <= stack_in), so the fused pair can never overflow past the
   PUSH the loop already validated. *)
let fusable_ids =
  [ 0x01 (* ADD *); 0x02 (* MUL *); 0x03 (* SUB *); 0x04 (* DIV *); 0x10 (* LT *);
    0x11 (* GT *); 0x14 (* EQ *); 0x16 (* AND *); 0x17 (* OR *); 0x18 (* XOR *);
    0x1b (* SHL *); 0x1c (* SHR *); 0x51 (* MLOAD *); 0x52 (* MSTORE *);
    0x54 (* SLOAD *); 0x56 (* JUMP *); 0x57 (* JUMPI *); 0x90 (* SWAP1 *) ]

let fusable = Array.make 256 false
let () = List.iter (fun id -> fusable.(id) <- true) fusable_ids

(* Third opcodes of a certified PUSH-PUSH-op triple (slot [0x300 + id]):
   stack-neutral-or-shrinking consumers whose static charge is
   fork-invariant, so the fused handler can capture it at install time.
   SLOAD/JUMP/JUMPI stay pair-only (fork-dependent charge / control
   transfer). *)
let triple_ids =
  [ 0x01 (* ADD *); 0x02 (* MUL *); 0x03 (* SUB *); 0x04 (* DIV *); 0x10 (* LT *);
    0x11 (* GT *); 0x14 (* EQ *); 0x16 (* AND *); 0x17 (* OR *); 0x18 (* XOR *);
    0x1b (* SHL *); 0x1c (* SHR *); 0x52 (* MSTORE *) ]

let triple_fusable = Array.make 256 false
let () = List.iter (fun id -> triple_fusable.(id) <- true) triple_ids

(* Successors of a certified DUP1-op pair (slot [0x200 + id]): binops only,
   so the window is a pure x -> op(x,x) rewrite on the existing top. *)
let dup_ids =
  [ 0x01; 0x02; 0x03; 0x04; 0x10; 0x11; 0x14; 0x16; 0x17; 0x18 ]

let dup_fusable = Array.make 256 false
let () = List.iter (fun id -> dup_fusable.(id) <- true) dup_ids

(* Basic-block leaders, the rule lib/bca's CFG splits blocks at: pc 0, every
   JUMPDEST (push data skipped) and the instruction after each JUMPI.
   Control enters a block only at its leader, so a window whose interior
   holds no leader is straight-line and may run as one dispatch. *)
let leaders_of instrs jumpdests =
  let n = Array.length instrs in
  let l = Array.make n false in
  if n > 0 then l.(0) <- true;
  for pc = 0 to n - 1 do
    if jumpdests.(pc) then l.(pc) <- true;
    if instrs.(pc).op = Op.JUMPI && instrs.(pc).next < n then l.(instrs.(pc).next) <- true
  done;
  l

let obs_triples = Obs.counter "interp.decode.fused_triples"
let obs_dups = Obs.counter "interp.decode.fused_dups"

let decode ~hash ~spec code =
  let instrs = Array.init (String.length code) (decode_at spec code) in
  let n = Array.length instrs in
  let jumpdests = analyze_jumpdests code in
  let leaders = leaders_of instrs jumpdests in
  (* A PUSH-op pair starts at the PUSH the dispatcher already validated,
     so it fuses unconditionally.  DUP1-op pairs and PUSH-PUSH-op triples
     fuse only when no leader lies inside the window: no jump lands there.
     The second PUSH of a triple keeps its own pair fusion, so a direct
     dispatch of it (a jump-adjacent stream) still executes correctly. *)
  let is_push (i : instr) = i.op_id >= 0x60 && i.op_id <= 0x7f in
  Array.iteri
    (fun pc i ->
      if i.steps = 1 && i.next < n then begin
        let j = instrs.(i.next) in
        let straight = j.steps = 1 && not leaders.(i.next) in
        let k = if j.next < n then instrs.(j.next) else j in
        let xop =
          if is_push i && is_push j && straight && j.next < n && triple_fusable.(k.op_id)
             && k.steps = 1 && not leaders.(j.next)
          then (Obs.incr obs_triples; 0x300 lor k.op_id)
          else if is_push i && fusable.(j.op_id) && j.steps = 1 then 0x100 lor j.op_id
          else if i.op_id = 0x80 && dup_fusable.(j.op_id) && straight then
            (Obs.incr obs_dups; 0x200 lor j.op_id)
          else i.xop
        in
        instrs.(pc) <- { i with xop }
      end)
    instrs;
  Array.iteri (fun pc i -> instrs.(pc) <- { i with meta = pack_meta i }) instrs;
  { code; code_hash = hash; instrs; jumpdests; leaders }

(* ---- the process-wide program cache ----

   Keyed by code hash × spec id (the statedb already stores
   keccak256(code) per account, so CALL-family lookups pay no hashing;
   the spec id is one appended byte).  Two specs never share an artifact:
   static gas and opcode availability are baked into the decoded stream,
   so a program decoded under Istanbul replayed under Berlin would
   mischarge every SLOAD — the mixed-spec hammer test pins the keying.
   Entries are immutable — the key is a content hash — so there is no
   invalidation protocol; a crude size cap bounds memory under
   adversarial churn.  Domain-safe per the lib/obs conventions: a mutex
   guards the table, the (pure) decode itself runs outside the lock so
   worker domains never serialize on each other's cold misses; a racing
   double-decode is benign (last insert wins, both artifacts are
   identical). *)

let cache : (string, program) Hashtbl.t = Hashtbl.create 256
let cache_mu = Mutex.create ()
let max_cached = 4096

let obs_hits = Obs.counter "interp.decode.hits"
let obs_misses = Obs.counter "interp.decode.misses"
let obs_bytes = Obs.counter "interp.decode.bytes"

let get ~hash ~(spec : Spec.t) code =
  let key = hash ^ String.make 1 (Char.chr spec.Spec.id) in
  Mutex.lock cache_mu;
  match Hashtbl.find_opt cache key with
  | Some p ->
    Mutex.unlock cache_mu;
    Obs.incr obs_hits;
    p
  | None ->
    Mutex.unlock cache_mu;
    Obs.incr obs_misses;
    Obs.add obs_bytes (String.length code);
    let p = decode ~hash ~spec code in
    Mutex.lock cache_mu;
    if Hashtbl.length cache >= max_cached then Hashtbl.reset cache;
    Hashtbl.replace cache key p;
    Mutex.unlock cache_mu;
    p

let cache_size () =
  Mutex.lock cache_mu;
  let n = Hashtbl.length cache in
  Mutex.unlock cache_mu;
  n

let clear_cache () =
  Mutex.lock cache_mu;
  Hashtbl.reset cache;
  Mutex.unlock cache_mu
