(* Storage locations: (account, slot key), keyed monomorphically. *)

type t = Address.t * U256.t

let compare (a, k) (a', k') =
  let c = Address.compare a a' in
  if c <> 0 then c else U256.compare k k'

let equal (a, k) (a', k') = Address.equal a a' && U256.equal k k'
let hash (a, k) = Address.hash a + (31 * U256.hash k)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
