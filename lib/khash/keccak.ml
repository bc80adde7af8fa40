(* Keccak-f[1600] sponge with rate 1088 / capacity 512 and multi-rate
   padding 0x01..0x80 — i.e. the pre-NIST Keccak-256 that Ethereum uses.

   The state is a 200-byte buffer of 25 little-endian lanes, lane [x + 5*y]
   at byte offset [8 * (x + 5*y)].  The permutation loads the lanes once
   into local [int64] variables (which ocamlopt keeps unboxed), runs the
   24 rounds with theta, rho+pi and chi written out lane by lane, and
   stores them back once.  Speculation worker domains hash concurrently, so
   each domain absorbs into its own scratch state ([Domain.DLS]), zeroed at
   the start of every digest; a digest allocates only its result.  The
   state is per domain, not per thread: no systhreads hash, and two that
   did could switch inside one digest and share its state. *)

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808AL;
     0x8000000080008000L; 0x000000000000808BL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008AL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000AL;
     0x000000008000808BL; 0x800000000000008BL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800AL; 0x800000008000000AL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let[@inline] xor a b = Int64.logxor a b

(* chi for one lane: a ^ (~b & c) *)
let[@inline] chi a b c = Int64.logxor a (Int64.logand (Int64.lognot b) c)

let keccak_f s =
  let a0 = ref (Bytes.get_int64_le s 0) and a1 = ref (Bytes.get_int64_le s 8)
  and a2 = ref (Bytes.get_int64_le s 16) and a3 = ref (Bytes.get_int64_le s 24)
  and a4 = ref (Bytes.get_int64_le s 32) and a5 = ref (Bytes.get_int64_le s 40)
  and a6 = ref (Bytes.get_int64_le s 48) and a7 = ref (Bytes.get_int64_le s 56)
  and a8 = ref (Bytes.get_int64_le s 64) and a9 = ref (Bytes.get_int64_le s 72)
  and a10 = ref (Bytes.get_int64_le s 80) and a11 = ref (Bytes.get_int64_le s 88)
  and a12 = ref (Bytes.get_int64_le s 96) and a13 = ref (Bytes.get_int64_le s 104)
  and a14 = ref (Bytes.get_int64_le s 112) and a15 = ref (Bytes.get_int64_le s 120)
  and a16 = ref (Bytes.get_int64_le s 128) and a17 = ref (Bytes.get_int64_le s 136)
  and a18 = ref (Bytes.get_int64_le s 144) and a19 = ref (Bytes.get_int64_le s 152)
  and a20 = ref (Bytes.get_int64_le s 160) and a21 = ref (Bytes.get_int64_le s 168)
  and a22 = ref (Bytes.get_int64_le s 176) and a23 = ref (Bytes.get_int64_le s 184)
  and a24 = ref (Bytes.get_int64_le s 192) in
  for round = 0 to 23 do
    (* Theta: column parities c, then d.(x) = c.(x-1) ^ rotl c.(x+1) 1. *)
    let c0 = xor !a0 (xor !a5 (xor !a10 (xor !a15 !a20))) in
    let c1 = xor !a1 (xor !a6 (xor !a11 (xor !a16 !a21))) in
    let c2 = xor !a2 (xor !a7 (xor !a12 (xor !a17 !a22))) in
    let c3 = xor !a3 (xor !a8 (xor !a13 (xor !a18 !a23))) in
    let c4 = xor !a4 (xor !a9 (xor !a14 (xor !a19 !a24))) in
    let d0 = xor c4 (rotl c1 1) in
    let d1 = xor c0 (rotl c2 1) in
    let d2 = xor c1 (rotl c3 1) in
    let d3 = xor c2 (rotl c4 1) in
    let d4 = xor c3 (rotl c0 1) in
    (* Rho + Pi: lane (x, y) rotated by its offset lands at (y, 2x + 3y),
       with theta's d.(x) folded in on the way. *)
    let b0 = xor !a0 d0 in
    let b1 = rotl (xor !a6 d1) 44 in
    let b2 = rotl (xor !a12 d2) 43 in
    let b3 = rotl (xor !a18 d3) 21 in
    let b4 = rotl (xor !a24 d4) 14 in
    let b5 = rotl (xor !a3 d3) 28 in
    let b6 = rotl (xor !a9 d4) 20 in
    let b7 = rotl (xor !a10 d0) 3 in
    let b8 = rotl (xor !a16 d1) 45 in
    let b9 = rotl (xor !a22 d2) 61 in
    let b10 = rotl (xor !a1 d1) 1 in
    let b11 = rotl (xor !a7 d2) 6 in
    let b12 = rotl (xor !a13 d3) 25 in
    let b13 = rotl (xor !a19 d4) 8 in
    let b14 = rotl (xor !a20 d0) 18 in
    let b15 = rotl (xor !a4 d4) 27 in
    let b16 = rotl (xor !a5 d0) 36 in
    let b17 = rotl (xor !a11 d1) 10 in
    let b18 = rotl (xor !a17 d2) 15 in
    let b19 = rotl (xor !a23 d3) 56 in
    let b20 = rotl (xor !a2 d2) 62 in
    let b21 = rotl (xor !a8 d3) 55 in
    let b22 = rotl (xor !a14 d4) 39 in
    let b23 = rotl (xor !a15 d0) 41 in
    let b24 = rotl (xor !a21 d1) 2 in
    (* Chi row by row, Iota on lane 0. *)
    a0 := xor (chi b0 b1 b2) round_constants.(round);
    a1 := chi b1 b2 b3;
    a2 := chi b2 b3 b4;
    a3 := chi b3 b4 b0;
    a4 := chi b4 b0 b1;
    a5 := chi b5 b6 b7;
    a6 := chi b6 b7 b8;
    a7 := chi b7 b8 b9;
    a8 := chi b8 b9 b5;
    a9 := chi b9 b5 b6;
    a10 := chi b10 b11 b12;
    a11 := chi b11 b12 b13;
    a12 := chi b12 b13 b14;
    a13 := chi b13 b14 b10;
    a14 := chi b14 b10 b11;
    a15 := chi b15 b16 b17;
    a16 := chi b16 b17 b18;
    a17 := chi b17 b18 b19;
    a18 := chi b18 b19 b15;
    a19 := chi b19 b15 b16;
    a20 := chi b20 b21 b22;
    a21 := chi b21 b22 b23;
    a22 := chi b22 b23 b24;
    a23 := chi b23 b24 b20;
    a24 := chi b24 b20 b21
  done;
  Bytes.set_int64_le s 0 !a0; Bytes.set_int64_le s 8 !a1;
  Bytes.set_int64_le s 16 !a2; Bytes.set_int64_le s 24 !a3;
  Bytes.set_int64_le s 32 !a4; Bytes.set_int64_le s 40 !a5;
  Bytes.set_int64_le s 48 !a6; Bytes.set_int64_le s 56 !a7;
  Bytes.set_int64_le s 64 !a8; Bytes.set_int64_le s 72 !a9;
  Bytes.set_int64_le s 80 !a10; Bytes.set_int64_le s 88 !a11;
  Bytes.set_int64_le s 96 !a12; Bytes.set_int64_le s 104 !a13;
  Bytes.set_int64_le s 112 !a14; Bytes.set_int64_le s 120 !a15;
  Bytes.set_int64_le s 128 !a16; Bytes.set_int64_le s 136 !a17;
  Bytes.set_int64_le s 144 !a18; Bytes.set_int64_le s 152 !a19;
  Bytes.set_int64_le s 160 !a20; Bytes.set_int64_le s 168 !a21;
  Bytes.set_int64_le s 176 !a22; Bytes.set_int64_le s 184 !a23;
  Bytes.set_int64_le s 192 !a24

let rate_bytes = 136

let xor_lane s i msg pos =
  Bytes.set_int64_le s i (xor (Bytes.get_int64_le s i) (String.get_int64_le msg pos))

let xor_byte s i b = Bytes.set s i (Char.unsafe_chr (Char.code (Bytes.get s i) lxor b))

let state = Domain.DLS.new_key (fun () -> Bytes.create 200)

(* The sponge state after absorbing [msg], in this domain's scratch state;
   the digest is its first 32 bytes. *)
let sponge msg =
  let s = Domain.DLS.get state in
  Bytes.fill s 0 200 '\000';
  let len = String.length msg in
  (* Absorb every full block a lane at a time, straight from [msg]. *)
  let full = len / rate_bytes * rate_bytes in
  let off = ref 0 in
  while !off < full do
    for lane = 0 to (rate_bytes / 8) - 1 do
      xor_lane s (8 * lane) msg (!off + (8 * lane))
    done;
    keccak_f s;
    off := !off + rate_bytes
  done;
  (* The tail (0..135 bytes) goes into the last block, whole lanes first;
     the padding 0x01 .. 0x80 is XORed into the state in place. *)
  let tail = len - full in
  let lanes = tail / 8 in
  for lane = 0 to lanes - 1 do
    xor_lane s (8 * lane) msg (full + (8 * lane))
  done;
  for i = 8 * lanes to tail - 1 do
    xor_byte s i (Char.code msg.[full + i])
  done;
  xor_byte s tail 0x01;
  xor_byte s (rate_bytes - 1) 0x80;
  keccak_f s;
  s

let digest msg = Bytes.sub_string (sponge msg) 0 32

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[b lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[b land 0xf]
  done;
  Bytes.unsafe_to_string out

let digest_hex msg = to_hex (digest msg)
(* read the word straight from the state, without the digest string *)
let digest_u256 msg =
  let s = sponge msg in
  U256.of_limbs (Bytes.get_int64_be s 24) (Bytes.get_int64_be s 16) (Bytes.get_int64_be s 8)
    (Bytes.get_int64_be s 0)
