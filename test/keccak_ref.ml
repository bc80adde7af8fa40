(* Reference Keccak-256 for the differential tests in [Test_khash]: the
   straightforward loop implementation (array state, [mod 5] indexing,
   rotation table, padded copy of the message) that [Khash.Keccak] must
   agree with byte for byte. *)

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808AL;
     0x8000000080008000L; 0x000000000000808BL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008AL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000AL;
     0x000000008000808BL; 0x800000000000008BL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800AL; 0x800000008000000AL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

(* Rotation offsets indexed [x + 5*y]. *)
let rotation =
  [| 0; 1; 62; 28; 27;
     36; 44; 6; 55; 20;
     3; 10; 43; 25; 39;
     41; 45; 15; 21; 8;
     18; 2; 61; 56; 14 |]

let rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let keccak_f state =
  let c = Array.make 5 0L in
  let d = Array.make 5 0L in
  let b = Array.make 25 0L in
  for round = 0 to 23 do
    (* Theta *)
    for x = 0 to 4 do
      c.(x) <-
        Int64.logxor state.(x)
          (Int64.logxor state.(x + 5)
             (Int64.logxor state.(x + 10) (Int64.logxor state.(x + 15) state.(x + 20))))
    done;
    for x = 0 to 4 do
      d.(x) <- Int64.logxor c.((x + 4) mod 5) (rotl64 c.((x + 1) mod 5) 1)
    done;
    for i = 0 to 24 do
      state.(i) <- Int64.logxor state.(i) d.(i mod 5)
    done;
    (* Rho + Pi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let i = x + (5 * y) in
        let x' = y and y' = ((2 * x) + (3 * y)) mod 5 in
        b.(x' + (5 * y')) <- rotl64 state.(i) rotation.(i)
      done
    done;
    (* Chi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let i = x + (5 * y) in
        state.(i) <-
          Int64.logxor b.(i)
            (Int64.logand
               (Int64.lognot b.(((x + 1) mod 5) + (5 * y)))
               b.(((x + 2) mod 5) + (5 * y)))
      done
    done;
    (* Iota *)
    state.(0) <- Int64.logxor state.(0) round_constants.(round)
  done

let rate_bytes = 136

let le64_of_bytes s off =
  let v = ref 0L in
  for j = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get s (off + j))))
  done;
  !v

let digest msg =
  let state = Array.make 25 0L in
  let msg_len = String.length msg in
  (* Padded length: next multiple of the rate. *)
  let padded_len = ((msg_len / rate_bytes) + 1) * rate_bytes in
  let buf = Bytes.make padded_len '\000' in
  Bytes.blit_string msg 0 buf 0 msg_len;
  Bytes.set buf msg_len '\x01';
  Bytes.set buf (padded_len - 1)
    (Char.chr (Char.code (Bytes.get buf (padded_len - 1)) lor 0x80));
  let nblocks = padded_len / rate_bytes in
  for blk = 0 to nblocks - 1 do
    for lane = 0 to (rate_bytes / 8) - 1 do
      state.(lane) <-
        Int64.logxor state.(lane) (le64_of_bytes buf ((blk * rate_bytes) + (lane * 8)))
    done;
    keccak_f state
  done;
  (* Squeeze 32 bytes (little-endian lanes). *)
  let out = Bytes.create 32 in
  for lane = 0 to 3 do
    for j = 0 to 7 do
      Bytes.set out ((lane * 8) + j)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical state.(lane) (j * 8)) 0xFFL)))
    done
  done;
  Bytes.to_string out
