(* Symbolic bytes as unboxed ints; see symmem.mli for the encoding. *)

type src = int

let zero = 0
let of_char c = Char.code c
let of_reg r i = 256 + (r lsl 5) + i
let is_const s = s < 256
let char_of s = Char.unsafe_chr s
let reg_of s = (s - 256) lsr 5
let byte_of s = (s - 256) land 31
let of_string s = Array.init (String.length s) (fun i -> Char.code (String.unsafe_get s i))

(* Offsets come from traced words and may sit near [max_int], so [off + i]
   can wrap negative: both bounds are checked. *)
let get (a : src array) i = if i >= 0 && i < Array.length a then Array.unsafe_get a i else zero
let slice a off len =
  if off >= 0 && off <= Array.length a - len then Array.sub a off len
  else Array.init len (fun i -> get a (off + i))

type t = { mutable bytes : src array; mutable hw : int }

exception Out_of_range

(* 32 MiB: a trace would need about 2^31 gas to expand memory that far. *)
let max_bytes = 1 lsl 25

let create () = { bytes = [||]; hw = 0 }
let bytes t = t.bytes
let high_water t = t.hw

(* Make room for bytes [0, n).  The EVM charged for this expansion before
   the traced step completed, so on a real trace [n] is bounded by its gas;
   a negative [n] is an offset that wrapped. *)
let ensure t n =
  if n > Array.length t.bytes || n < 0 then begin
    if n > max_bytes || n < 0 then raise Out_of_range;
    let cap = max ((n + 31) land lnot 31) (2 * Array.length t.bytes) in
    let a = Array.make cap zero in
    Array.blit t.bytes 0 a 0 t.hw;
    t.bytes <- a
  end;
  if n > t.hw then t.hw <- n

let write_const_word t off v =
  ensure t (off + 32);
  let s = U256.to_bytes_be v in
  for i = 0 to 31 do
    Array.unsafe_set t.bytes (off + i) (Char.code (String.unsafe_get s i))
  done

let write_reg_word t off r =
  ensure t (off + 32);
  let s0 = of_reg r 0 in
  for i = 0 to 31 do
    Array.unsafe_set t.bytes (off + i) (s0 + i)
  done

let write_byte t off s =
  ensure t (off + 1);
  t.bytes.(off) <- s

let blit t ~dst src ~off ~len =
  if len > 0 then begin
    ensure t (dst + len);
    for i = 0 to len - 1 do
      Array.unsafe_set t.bytes (dst + i) (get src (off + i))
    done
  end

let blit_string t ~dst s ~off ~len =
  if len > 0 then begin
    ensure t (dst + len);
    let n = String.length s in
    for i = 0 to len - 1 do
      let j = off + i in
      Array.unsafe_set t.bytes (dst + i)
        (if j >= 0 && j < n then Char.code (String.unsafe_get s j) else zero)
    done
  end
