(* Reference Merkle-Patricia root for the codec tests in [Test_trie]: the
   node encoding built as an [Rlp.item] tree with a separate hex-prefix
   pass and encoded by [Rlp_ref], and a root computed from the sorted bindings alone, with no
   writes, deletes or commits.  [Trie.root_hash] must agree with it byte
   for byte.  As in [Trie], every node is stored by its hash, including
   nodes shorter than 32 bytes. *)

type node =
  | Empty
  | Leaf of string * string (* nibble path (chars with codes 0..15), value *)
  | Ext of string * node
  | Branch of node array * string option

let to_nibbles key =
  String.init
    (2 * String.length key)
    (fun i ->
      let b = Char.code key.[i / 2] in
      Char.chr (if i land 1 = 0 then b lsr 4 else b land 0xf))

let drop n s = String.sub s n (String.length s - n)

(* ---- hex-prefix encoding (yellow paper appendix C) ---- *)

let hp_encode nibbles is_leaf =
  let flag = if is_leaf then 2 else 0 in
  let n = String.length nibbles in
  if n mod 2 = 1 then
    String.init
      ((n + 1) / 2)
      (fun i ->
        if i = 0 then Char.chr (((flag + 1) lsl 4) lor Char.code nibbles.[0])
        else Char.chr ((Char.code nibbles.[(2 * i) - 1] lsl 4) lor Char.code nibbles.[2 * i]))
  else
    String.init
      ((n / 2) + 1)
      (fun i ->
        if i = 0 then Char.chr (flag lsl 4)
        else Char.chr ((Char.code nibbles.[(2 * i) - 2] lsl 4) lor Char.code nibbles.[(2 * i) - 1]))

(* [child] gives the hash a child reference is encoded as. *)
let encode_node child = function
  | Empty -> invalid_arg "Trie_ref.encode_node: empty"
  | Leaf (path, value) -> Rlp_ref.encode (Rlp.List [ Rlp.Str (hp_encode path true); Rlp.Str value ])
  | Ext (path, c) -> Rlp_ref.encode (Rlp.List [ Rlp.Str (hp_encode path false); Rlp.Str (child c) ])
  | Branch (children, value) ->
    let items = Array.to_list (Array.map (fun c -> Rlp.Str (child c)) children) in
    let v = match value with Some v -> Rlp.Str v | None -> Rlp.Str "" in
    Rlp_ref.encode (Rlp.List (items @ [ v ]))

let rec hash = function Empty -> "" | n -> Khash.Keccak.digest (encode_node hash n)

(* The canonical trie over [bindings]: distinct nibble paths, non-empty. *)
let rec build = function
  | [ (p, v) ] -> Leaf (p, v)
  | bindings ->
    let p0 = fst (List.hd bindings) in
    let common p =
      let n = min (String.length p) (String.length p0) in
      let rec go i = if i < n && p.[i] = p0.[i] then go (i + 1) else i in
      go 0
    in
    let cp = List.fold_left (fun m (p, _) -> min m (common p)) (String.length p0) bindings in
    if cp > 0 then
      Ext (String.sub p0 0 cp, build (List.map (fun (p, v) -> (drop cp p, v)) bindings))
    else
      let value = List.assoc_opt "" bindings in
      let children =
        Array.init 16 (fun i ->
            match
              List.filter_map
                (fun (p, v) ->
                  if p <> "" && Char.code p.[0] = i then Some (drop 1 p, v) else None)
                bindings
            with
            | [] -> Empty
            | l -> build l)
      in
      Branch (children, value)

let empty_root = Khash.Keccak.digest (Rlp_ref.encode (Rlp.Str ""))

(* The root of the trie holding exactly [bindings] (byte keys, distinct). *)
let root bindings =
  match List.sort compare bindings with
  | [] -> empty_root
  | l -> hash (build (List.map (fun (k, v) -> (to_nibbles k, v)) l))
