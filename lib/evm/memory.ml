(* EVM linear memory: byte-addressed, zero-initialised, growing in 32-byte
   words.  Growth cost is quadratic (see {!memory_cost}); the interpreter
   charges the cost difference before calling {!ensure}. *)

type t = { mutable buf : Bytes.t; mutable hwm : int (* word-aligned high-water mark *) }

let words n = (n + 31) / 32

(* Total cost of a memory of [n] bytes: 3 gas per word plus the quadratic
   term, unchanged across every fork in the spec ladder. *)
let memory_cost n =
  let w = words n in
  (3 * w) + (w * w / 512)

(* The initial buffer is small enough for the minor heap, where a
   short-lived frame's garbage belongs; [ensure] doubles it on demand. *)
let create () = { buf = Bytes.make 1024 '\000'; hwm = 0 }
let size m = m.hwm

(* Word-aligned size needed to touch [off, off+len).  Same value as
   [words (off + len) * 32], written out locally so the size checks on
   every MLOAD/MSTORE stay a couple of integer ops. *)
let needed off len = if len = 0 then 0 else (off + len + 31) land lnot 31

(* Gas cost of expanding to cover [off, off+len); 0 if already covered. *)
let expansion_cost m off len =
  let n = needed off len in
  if n <= m.hwm then 0 else memory_cost n - memory_cost m.hwm

let ensure m off len =
  let n = needed off len in
  if n > m.hwm then begin
    if n > Bytes.length m.buf then begin
      let cap = ref (Bytes.length m.buf * 2) in
      while !cap < n do
        cap := !cap * 2
      done;
      let buf = Bytes.make !cap '\000' in
      Bytes.blit m.buf 0 buf 0 m.hwm;
      m.buf <- buf
    end;
    m.hwm <- n
  end

let load m off len =
  if len = 0 then ""
  else begin
    ensure m off len;
    Bytes.sub_string m.buf off len
  end

let store m off s =
  if String.length s > 0 then begin
    ensure m off (String.length s);
    Bytes.blit_string s 0 m.buf off (String.length s)
  end

(* Word load/store read and write the four limbs in place — MLOAD/MSTORE
   are hot enough that the intermediate 32-byte string matters. *)
let load_word m off =
  if off + 32 > m.hwm then ensure m off 32;
  let b = m.buf in
  U256.of_limbs
    (Bytes.get_int64_be b (off + 24))
    (Bytes.get_int64_be b (off + 16))
    (Bytes.get_int64_be b (off + 8))
    (Bytes.get_int64_be b off)

let store_word m off v =
  if off + 32 > m.hwm then ensure m off 32;
  let x0, x1, x2, x3 = U256.to_limbs v in
  let b = m.buf in
  Bytes.set_int64_be b off x3;
  Bytes.set_int64_be b (off + 8) x2;
  Bytes.set_int64_be b (off + 16) x1;
  Bytes.set_int64_be b (off + 24) x0

let store_byte m off b =
  ensure m off 1;
  Bytes.set m.buf off (Char.chr (b land 0xff))

(* Copy [len] bytes of [src] starting at [src_off] into memory at [dst],
   zero-padding outside [src] (CALLDATACOPY / CODECOPY semantics).  One blit
   for the in-bounds middle and bulk fills for the zero-padded edges — these
   opcodes are hot in every traced execution, so no per-byte loop. *)
let store_slice m ~dst ~src ~src_off ~len =
  if len > 0 then begin
    ensure m dst len;
    (* destination indices i with 0 <= src_off + i < |src| are copied *)
    let lo = min len (max 0 (-src_off)) in
    let hi = min len (max lo (String.length src - src_off)) in
    if lo > 0 then Bytes.fill m.buf dst lo '\000';
    if hi > lo then Bytes.blit_string src (src_off + lo) m.buf (dst + lo) (hi - lo);
    if len > hi then Bytes.fill m.buf (dst + hi) (len - hi) '\000'
  end
