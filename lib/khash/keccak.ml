(* Keccak-256 through the C kernel in [keccak_stubs.c]: one [@@noalloc]
   external absorbs the message straight from the OCaml string, permutes a
   state on the C stack and writes the 32-byte digest into [out].  The
   kernel keeps no globals, so speculation worker domains hash
   concurrently without any per-domain state here. *)

external keccak256_into : string -> bytes -> unit = "khash_keccak256" [@@noalloc]

let rate_bytes = 136

let obs_digests = Obs.counter "khash.digests"
let obs_permutations = Obs.counter "khash.permutations"

(* One permutation per full block plus one for the padded tail block. *)
let[@inline] hash msg out =
  if !Obs.enabled then begin
    Obs.incr obs_digests;
    Obs.add obs_permutations ((String.length msg / rate_bytes) + 1)
  end;
  keccak256_into msg out

let digest msg =
  let out = Bytes.create 32 in
  hash msg out;
  Bytes.unsafe_to_string out

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

(* The word is read from a per-domain 32-byte scratch digest, so the call
   allocates only the word itself.  All four limbs are read before the word
   is built, so no allocation (and no thread switch) falls between writing
   the scratch digest and reading it. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create 32)

let digest_u256 msg =
  let out = Domain.DLS.get scratch in
  hash msg out;
  let x3 = Bytes.get_int64_be out 0 and x2 = Bytes.get_int64_be out 8 in
  let x1 = Bytes.get_int64_be out 16 and x0 = Bytes.get_int64_be out 24 in
  U256.of_limbs x0 x1 x2 x3
