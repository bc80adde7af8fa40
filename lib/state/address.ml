type t = string

let zero = String.make 20 '\000'

let of_bytes s =
  if String.length s <> 20 then invalid_arg "Address.of_bytes: need 20 bytes";
  s

let to_bytes a = a
let of_u256 v =
  let b = Bytes.create 20 in
  U256.blit_be v 12 b 0 20;
  Bytes.unsafe_to_string b

let to_u256 a = U256.of_bytes_be a
let of_int n = of_u256 (U256.of_int n)

let of_hex s =
  let s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      String.sub s 2 (String.length s - 2)
    else s
  in
  if String.length s <> 40 then invalid_arg "Address.of_hex: need 40 hex digits";
  of_u256 (U256.of_hex s)

let to_hex a = "0x" ^ Khash.Keccak.to_hex a
let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash
let pp ppf a = Fmt.string ppf (to_hex a)

module Map = Map.Make (String)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
