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
  next : int;
  meta : int;
      (** the dispatch scalars packed into one immediate, one load per
          untraced dispatch: bits 0..9 xop (the untraced dispatch id:
          [op_id]; [0x100 + successor] for a fused PUSH-op pair;
          [0x200 + third] for a certified PUSH-PUSH-op triple), 10..14
          stack_in, 15..25 min(max_sp,2047), 26..40 static_gas, 41 steps *)
}

let pack_meta ~xop ~stack_in ~max_sp ~static_gas ~steps =
  xop land 0x3ff
  lor (stack_in lsl 10)
  lor (min max_sp 2047 lsl 15)
  lor (static_gas lsl 26)
  lor (steps lsl 41)

let with_xop m xop = (m land lnot 0x3ff) lor xop
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
    { op_id = b; op = Op.INVALID; imm = U256.zero; imm_i = 0; next = pc + 1;
      meta = pack_meta ~xop:b ~stack_in:0 ~max_sp:max_int ~static_gas:0 ~steps:0 }
  | Some _ when not (Spec.available spec b) ->
    (* Assigned byte not yet introduced under this fork: decoded exactly
       like an unassigned one, but dispatched through [invalid_xop] so the
       real handler installed at slot [b] is never reached.  [op_id] keeps
       the original byte for the failure payload. *)
    { op_id = b; op = Op.INVALID; imm = U256.zero; imm_i = 0; next = pc + 1;
      meta = pack_meta ~xop:invalid_xop ~stack_in:0 ~max_sp:max_int ~static_gas:0 ~steps:0 }
  | Some op ->
    let si = Op.stack_in op and so = Op.stack_out op in
    let npush = Op.push_bytes op in
    let imm = if npush = 0 then U256.zero else imm_of code (pc + 1) npush in
    {
      op_id = b;
      op;
      imm;
      imm_i = (match U256.to_int_opt imm with Some n -> n | None -> -1);
      next = pc + 1 + npush;
      meta =
        pack_meta ~xop:b ~stack_in:si ~max_sp:(max_stack - (so - si))
          ~static_gas:(Array.unsafe_get spec.Spec.static_gas b) ~steps:1;
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

(* Third opcodes of a certified PUSH-PUSH-op triple (slot [0x200 + id]):
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

let decode ~hash ~spec code =
  let instrs = Array.init (String.length code) (decode_at spec code) in
  let n = Array.length instrs in
  let jumpdests = analyze_jumpdests code in
  let leaders = leaders_of instrs jumpdests in
  (* A PUSH-op pair starts at the PUSH the dispatcher already validated,
     so it fuses unconditionally.  PUSH-PUSH-op triples fuse only when no
     leader lies inside the window: no jump lands there.  The second PUSH
     of a triple keeps its own pair fusion, so a direct dispatch of it (a
     jump-adjacent stream) still executes correctly. *)
  let is_push (i : instr) = i.op_id >= 0x60 && i.op_id <= 0x7f in
  let steps (i : instr) = meta_steps i.meta in
  Array.iteri
    (fun pc i ->
      if is_push i && steps i = 1 && i.next < n && steps instrs.(i.next) = 1 then begin
        let j = instrs.(i.next) in
        let k = if j.next < n then instrs.(j.next) else j in
        if is_push j && j.next < n && triple_fusable.(k.op_id) && steps k = 1
           && not (leaders.(i.next) || leaders.(j.next))
        then begin
          Obs.incr obs_triples;
          instrs.(pc) <- { i with meta = with_xop i.meta (0x200 lor k.op_id) }
        end
        else if fusable.(j.op_id) then
          instrs.(pc) <- { i with meta = with_xop i.meta (0x100 lor j.op_id) }
      end)
    instrs;
  { code; code_hash = hash; instrs; jumpdests; leaders }

(* ---- the process-wide program cache ----

   Keyed by code hash (stored per account, so lookups pay no hashing) ×
   spec id: static gas and opcode availability are baked into the stream,
   so a program decoded under Istanbul would mischarge every SLOAD under
   Berlin — the mixed-spec hammer test pins the keying.  Entries are
   immutable (the key is a content hash), so nothing is ever invalidated.
   The decode runs outside the lock, so worker domains never serialize on
   each other's cold misses. *)

let cache_key ~hash ~(spec : Spec.t) = hash ^ String.make 1 (Char.chr spec.Spec.id)
let cache : (string, program) Lru.t = Lru.create ~name:"interp.decode" 4096
let cache_mu = Mutex.create ()
let obs_bytes = Obs.counter "interp.decode.bytes"

let decode_miss hash spec code = Obs.add obs_bytes (String.length code); decode ~hash ~spec code

let get ~hash ~spec code = Lru.memo cache_mu cache (cache_key ~hash ~spec) decode_miss hash spec code
let cache_size () = Mutex.protect cache_mu (fun () -> Lru.length cache)
let clear_cache () = Mutex.protect cache_mu (fun () -> Lru.clear cache)
