(* The Merkle-Patricia trie: a content-addressed node store, dirty
   in-memory nodes, and the node codec.  Nodes are written and read in
   place, with no [Rlp.item] tree in between: [encode_node] works out a
   node's exact RLP size, then writes its list header, hex-prefix path and
   each child hash or value into one buffer; lookups, writes and
   [decode_scanned] read a stored encoding through [Rlp]'s in-place
   readers, one [scan] per node.  A write through a stored branch or
   extension keeps its encoding and splices the new child hashes in at
   commit.  The format is the yellow paper's, with every node stored under
   its hash — nodes shorter than 32 bytes are not inlined into their
   parent. *)

module Db = struct
  (* Keys are Keccak-256 digests, already uniform, so the table hashes
     their first 8 bytes instead of the generic hash over the string, and
     compares with [String.equal].  Shorter keys can only come from
     malformed stored nodes; they take the generic hash and miss. *)
  module Tbl = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash h =
      if String.length h >= 8 then Int64.to_int (String.get_int64_le h 0) else Hashtbl.hash h
  end)

  (* The I/O counters are atomics: speculation worker domains (lib/sched)
     walk tries concurrently, and lost increments would skew the disk-I/O
     proxy the evaluation reports.  The store itself is only read
     concurrently — writers ([put], from commits) run with the worker pool
     quiesced, which the scheduler's block-boundary barrier guarantees. *)
  type t = {
    store : string Tbl.t;
    reads : int Atomic.t;
    writes : int Atomic.t;
  }

  (* process-wide totals across every Db instance (the per-instance counters
     above reset per experiment) *)
  let obs_reads = Obs.counter "trie.node_reads"
  let obs_writes = Obs.counter "trie.node_writes"

  let create () = { store = Tbl.create 1024; reads = Atomic.make 0; writes = Atomic.make 0 }
  let node_reads t = Atomic.get t.reads
  let node_writes t = Atomic.get t.writes

  let reset_counters t =
    Atomic.set t.reads 0;
    Atomic.set t.writes 0

  let size t = Tbl.length t.store

  let put t encoded =
    let h = Khash.Keccak.digest encoded in
    if not (Tbl.mem t.store h) then begin
      Tbl.add t.store h encoded;
      Atomic.incr t.writes;
      Obs.incr obs_writes
    end;
    h

  let get t h =
    Atomic.incr t.reads;
    Obs.incr obs_reads;
    match Tbl.find t.store h with
    | enc -> enc
    | exception Not_found -> invalid_arg "Trie.Db: missing node (corrupted store or bad root)"
end

(* A node reference.  [Hash h] names a node stored in the Db under the
   Keccak-256 hash of its encoding.  [Node n] is a dirty node: written since
   the last [commit], held in memory and not yet encoded, hashed or stored.
   [Patch (enc, patches)] is a dirty stored branch or extension that writes
   went through without decoding it: its stored encoding [enc], and the
   children that replace its 32-byte hash items, one per key and never
   [Empty].  A branch's child takes its nibble as key, an extension's child
   [ext_key]: a branch's value item is never patched. *)
type nref = Empty | Hash of string | Node of node | Patch of string * (int * nref) list

and node =
  | Leaf of string * string (* nibble path (chars with codes 0..15), value *)
  | Ext of string * nref
  | Branch of nref array * string option

type t = { db : Db.t; root : nref }

let db t = t.db

(* stored nodes decoded into a [Leaf], [Ext] or [Branch], and writes that
   went through a stored node's encoding without decoding it *)
let obs_decodes = Obs.counter "trie.node_decodes"
let obs_splices = Obs.counter "trie.node_splices"

(* ---- nibble helpers ---- *)

(* Nibble [j] of the byte string [s], high nibble first. *)
let nib s j =
  let b = Char.code s.[j lsr 1] in
  if j land 1 = 0 then b lsr 4 else b land 0xf

let to_nibbles key = String.init (2 * String.length key) (fun i -> Char.chr (nib key i))

let of_nibbles nb =
  String.init
    (String.length nb / 2)
    (fun i -> Char.chr ((Char.code nb.[2 * i] lsl 4) lor Char.code nb.[(2 * i) + 1]))

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let drop n s = String.sub s n (String.length s - n)

(* ---- reading a stored node ----
   A stored node is one list spanning the whole encoding, whose items are
   all strings.  Every walk over it reads through [Rlp.item_end] and
   [Rlp.payload_start], so it makes the checks [Rlp.decode] makes: every
   header and payload in bounds and every length minimal. *)

let bad_node () = invalid_arg "Trie: bad node encoding"

(* The list header, checked; returns the offset of the first item. *)
let first_item enc =
  let n = String.length enc in
  if n = 0 || not (Rlp.is_list enc 0) then bad_node ();
  if Rlp.item_end enc 0 n <> n then raise (Rlp.Decode_error "trailing bytes");
  Rlp.payload_start enc 0

(* The end of the item at [pos], which must be a string.  The two items a
   stored node is mostly made of, the empty string 0x80 and a 32-byte hash
   0xa0, take [Rlp.item_end]'s fast skips here, without the call: modules
   are compiled opaquely, so no call into [Rlp] is inlined, and a call per
   item made lookups about 30% slower. *)
let str_end enc pos =
  let n = String.length enc in
  if pos >= n then Rlp.item_end enc pos n
  else
    match String.unsafe_get enc pos with
    | '\x80' -> pos + 1
    | '\xa0' when n - pos > 32 -> pos + 33
    | c ->
      if c >= '\xc0' then bad_node ();
      Rlp.item_end enc pos n

(* [Rlp.payload_start], with the same two items answered here. *)
let payload_at enc pos =
  match String.unsafe_get enc pos with '\x80' | '\xa0' -> pos + 1 | _ -> Rlp.payload_start enc pos

let item_str enc pos stop =
  let a = payload_at enc pos in
  String.sub enc a (stop - a)

(* The one pass over a stored node's items that lookups and writes make:
   it checks the list and every item, counts the items, and returns where
   the item the walk needs starts.  For a leaf or an extension (two items)
   that is the second item, returned negated; for a branch (seventeen) it
   is the item [sel] picks, 16 for the value.  Items start past the list
   header, at offset 1 or more, so the sign tells the two apart. *)
let scan enc sel =
  let n = String.length enc in
  let pos = ref (first_item enc) and count = ref 0 and second = ref 0 and chosen = ref 0 in
  while !pos < n do
    if !count = 1 then second := !pos;
    if !count = sel then chosen := !pos;
    pos := str_end enc !pos;
    incr count
  done;
  match !count with 2 -> - !second | 17 -> !chosen | _ -> bad_node ()

(* The payload offset of a scanned leaf's or extension's first item, its
   hex-prefix path (yellow paper appendix C). *)
let path_payload enc = Rlp.payload_start enc (Rlp.payload_start enc 0)

(* The offset in nibbles of the path's first nibble in [enc], past the flag
   nibble and, for an even path, the pad nibble; the path's item payload
   starts at [a] and ends at [stop]. *)
let path_base enc a stop =
  if a = stop then invalid_arg "Trie: empty hex-prefix path";
  if Char.code enc.[a] land 0x10 <> 0 then (2 * a) + 1 else (2 * a) + 2

let path_is_leaf enc a = Char.code enc.[a] land 0x20 <> 0

(* Is the item at [pos] a 32-byte hash?  Only such an item takes a splice:
   every child a write makes is stored by its 32-byte hash. *)
let is_hash_item enc pos = enc.[pos] = '\xa0'

let ext_key = 16

(* The child that replaced the item with key [k], or [Empty] while the
   stored one stands. *)
let rec patched k = function
  | (p, c) :: rest -> if p = k then c else patched k rest
  | [] -> Empty

(* The child reference held by the item with key [k], from [pos] to [stop]. *)
let child_at enc patches k pos stop =
  match patched k patches with
  | Empty ->
    let a = payload_at enc pos in
    if a = stop then Empty else Hash (String.sub enc a (stop - a))
  | c -> c

(* ---- node (de)serialisation ---- *)

(* A hex-prefix path of [n] nibbles is [n / 2 + 1] bytes; when that is one
   byte it is below 0x80 (the flag nibble is at most 3) and has no header. *)
let path_size n =
  let m = (n / 2) + 1 in
  if m = 1 then 1 else Rlp.header_len m + m

(* The path [p] (one nibble per char), hex-prefixed: a flag nibble of 2
   for a leaf or 0 for an extension, plus 1 when the path is odd, in which
   case the path's first nibble shares the flag's byte. *)
let put_path b pos p ~leaf =
  let n = String.length p in
  let odd = n land 1 in
  let m = (n / 2) + 1 in
  let pos = if m = 1 then pos else Rlp.put_header b pos 0x80 m in
  let flag = (if leaf then 2 else 0) + odd in
  Bytes.set b pos (Char.chr ((flag lsl 4) lor if odd = 1 then Char.code p.[0] else 0));
  for i = 1 to m - 1 do
    let j = (2 * i) - 2 + odd in
    Bytes.set b (pos + i) (Char.chr ((Char.code p.[j] lsl 4) lor Char.code p.[j + 1]))
  done;
  pos + m

let list_bytes payload =
  let b = Bytes.create (Rlp.header_len payload + payload) in
  (b, Rlp.put_header b 0 0xc0 payload)

(* A leaf or extension: its path and then its value or child hash. *)
let encode_pair p ~leaf s =
  let b, pos = list_bytes (path_size (String.length p) + Rlp.str_size s) in
  ignore (Rlp.put_str b (put_path b pos p ~leaf) s);
  Bytes.unsafe_to_string b

(* [child] gives the hash a child reference is encoded as. *)
let encode_node child = function
  | Leaf (p, v) -> encode_pair p ~leaf:true v
  | Ext (p, c) -> encode_pair p ~leaf:false (child c)
  | Branch (children, value) ->
    let hashes = Array.map child children in
    let v = Option.value value ~default:"" in
    let payload = Array.fold_left (fun n h -> n + Rlp.str_size h) (Rlp.str_size v) hashes in
    let b, pos = list_bytes payload in
    ignore (Rlp.put_str b (Array.fold_left (Rlp.put_str b) pos hashes) v);
    Bytes.unsafe_to_string b

(* A patched stored node: its encoding with each new child's hash written
   over the old one, found in one walk over the items; nothing is
   re-encoded. *)
let splice_encoding child enc patches =
  let b = Bytes.of_string enc in
  let put pos c = Bytes.blit_string (child c) 0 b (pos + 1) 32 in
  let first = Rlp.payload_start enc 0 in
  (match patched ext_key patches with
  | Empty ->
    let pos = ref first in
    for i = 0 to 15 do
      (match patched i patches with Empty -> () | c -> put !pos c);
      pos := str_end enc !pos
    done
  | c -> put (str_end enc first) c);
  Bytes.unsafe_to_string b

(* The children and value of a scanned branch. *)
let decode_branch enc patches =
  Obs.incr obs_decodes;
  let n = String.length enc in
  let children = Array.make 16 Empty in
  let pos = ref (Rlp.payload_start enc 0) in
  for i = 0 to 15 do
    let stop = str_end enc !pos in
    children.(i) <- child_at enc patches i !pos stop;
    pos := stop
  done;
  let v = item_str enc !pos n in
  (children, if v = "" then None else Some v)

(* Decode a node [scan] checked; [at] is what it returned. *)
let decode_scanned enc patches at =
  if at < 0 then begin
    Obs.incr obs_decodes;
    let b = -at and n = String.length enc in
    let a = path_payload enc in
    let base = path_base enc a b in
    let path = String.init ((2 * b) - base) (fun i -> Char.chr (nib enc (base + i))) in
    if path_is_leaf enc a then Leaf (path, item_str enc b n)
    else Ext (path, child_at enc patches ext_key b n)
  end
  else
    let children, value = decode_branch enc patches in
    Branch (children, value)

let resolve db = function
  | Hash h ->
    let enc = Db.get db h in
    decode_scanned enc [] (scan enc 16)
  | Patch (enc, patches) -> decode_scanned enc patches (scan enc 16)
  | Node n -> n
  | Empty -> invalid_arg "Trie: resolve of an empty reference"

(* ---- lookup ----
   The key stays a byte string and [i] counts the nibbles already matched.
   A stored node is read in place: the walk skips item headers to the item
   it needs and copies out only the next child hash or the value. *)

(* Do the [n] nibbles of [s] from nibble [si] equal those of [k] from [ki]? *)
let rec nibs_equal s si k ki n =
  n = 0 || (nib s si = nib k ki && nibs_equal s (si + 1) k (ki + 1) (n - 1))

(* Do the [m] bytes of [s] from [sb] equal those of [k] from [kb]?  Eight
   at a time, then one at a time. *)
let rec bytes_equal s sb k kb m =
  if m >= 8 then
    Int64.equal (String.get_int64_ne s sb) (String.get_int64_ne k kb)
    && bytes_equal s (sb + 8) k (kb + 8) (m - 8)
  else m = 0 || (s.[sb] = k.[kb] && bytes_equal s (sb + 1) k (kb + 1) (m - 1))

(* Does the stored path of [n] nibbles from nibble [si] of [s] equal the
   [n] nibbles of [k] from [ki]?  A stored path ends on a byte boundary, so
   when the two start on the same half-byte, only an odd first nibble needs
   comparing on its own and the rest is whole bytes.  For a 32-byte key
   that is always the case at a leaf. *)
let path_matches s si k ki n =
  if (si lxor ki) land 1 <> 0 then nibs_equal s si k ki n
  else if si land 1 = 1 then
    nib s si = nib k ki && bytes_equal s ((si + 1) lsr 1) k ((ki + 1) lsr 1) (n lsr 1)
  else bytes_equal s (si lsr 1) k (ki lsr 1) (n lsr 1)

(* Same as [nibs_equal], for a path held one nibble per char. *)
let rec path_equal p pi k ki n =
  n = 0 || (Char.code p.[pi] = nib k ki && path_equal p (pi + 1) k (ki + 1) (n - 1))

let rec get_ref db nref key i =
  let rest = (2 * String.length key) - i in
  match nref with
  | Empty -> None
  | Hash h -> get_stored db (Db.get db h) [] key i
  | Patch (enc, patches) -> get_stored db enc patches key i
  | Node (Leaf (p, v)) ->
    if String.length p = rest && path_equal p 0 key i rest then Some v else None
  | Node (Ext (p, child)) ->
    let n = String.length p in
    if n <= rest && path_equal p 0 key i n then get_ref db child key (i + n) else None
  | Node (Branch (children, value)) ->
    if rest = 0 then value else get_ref db children.(nib key i) key (i + 1)

(* A branch child already patched is followed without a scan. *)
and get_stored db enc patches key i =
  let rest = (2 * String.length key) - i in
  let sel = if rest = 0 then 16 else nib key i in
  match if rest = 0 then Empty else patched sel patches with
  | Empty ->
    let n = String.length enc in
    let at = scan enc sel in
    if at < 0 then begin
      let b = -at and a = path_payload enc in
      let base = path_base enc a b in
      let len = (2 * b) - base in
      if path_is_leaf enc a then
        if len = rest && path_matches enc base key i len then Some (item_str enc b n) else None
      else if len <= rest && path_matches enc base key i len then
        get_child db enc patches ext_key b n key (i + len)
      else None
    end
    else
      let stop = str_end enc at in
      if rest = 0 then match item_str enc at stop with "" -> None | v -> Some v
      else get_child db enc patches sel at stop key (i + 1)
  | c -> get_ref db c key (i + 1)

(* Walk on into the child the item with key [k], from [pos] to [stop],
   holds. *)
and get_child db enc patches k pos stop key i =
  match patched k patches with
  | Empty -> (
    match item_str enc pos stop with "" -> None | h -> get_stored db (Db.get db h) [] key i)
  | c -> get_ref db c key i

(* ---- insertion ----
   A write that goes through a stored branch or extension splices its new
   child into the node's encoding ([splice]).  A stored node is decoded
   only when the write changes its layout: a leaf or extension split, a
   branch value, or a child where the branch has none.  Every node built
   is a dirty [Node]. *)

let leaf path value = Node (Leaf (path, value))
let wrap_ext prefix nref = if prefix = "" then nref else Node (Ext (prefix, nref))

let rec unpatched pos = function
  | (p, _) :: rest when p = pos -> rest
  | e :: rest -> e :: unpatched pos rest
  | [] -> []

(* The stored node [enc] with [child] in place of the hash item with key
   [k]. *)
let splice enc patches k child =
  Obs.incr obs_splices;
  Patch (enc, (k, child) :: unpatched k patches)

let rec insert_at db nref path value =
  match nref with
  | Empty -> leaf path value
  | Hash h -> insert_stored db (Db.get db h) [] path value
  | Patch (enc, patches) -> insert_stored db enc patches path value
  | Node n -> insert_node db n path value

(* A write through a branch child already patched needs no scan. *)
and insert_stored db enc patches path value =
  let np = String.length path in
  let sel = if np = 0 then 16 else Char.code path.[0] in
  match if np = 0 then Empty else patched sel patches with
  | Empty ->
    let at = scan enc sel in
    if at < 0 then begin
      let b = -at and a = path_payload enc in
      let base = path_base enc a b in
      let len = (2 * b) - base in
      let on_path = len <= np && path_equal path 0 enc base len in
      if path_is_leaf enc a then
        (* an overwrite builds the new leaf without decoding the old one *)
        if on_path && len = np then leaf path value
        else insert_node db (decode_scanned enc patches at) path value
      else if on_path && is_hash_item enc b then
        let child = child_at enc patches ext_key b (b + 33) in
        splice enc patches ext_key (insert_at db child (drop len path) value)
      else insert_node db (decode_scanned enc patches at) path value
    end
    else if np > 0 && is_hash_item enc at then
      let child = child_at enc patches sel at (at + 33) in
      splice enc patches sel (insert_at db child (drop 1 path) value)
    else insert_node db (decode_scanned enc patches at) path value
  | c -> splice enc patches sel (insert_at db c (drop 1 path) value)

and insert_node db n path value =
  match n with
  | Leaf (p, old_v) ->
    if p = path then leaf p value
    else begin
      let cp = common_prefix_len p path in
      let p' = drop cp p and path' = drop cp path in
      let children = Array.make 16 Empty in
      let bval = ref None in
      (if p' = "" then bval := Some old_v
       else children.(Char.code p'.[0]) <- leaf (drop 1 p') old_v);
      (if path' = "" then bval := Some value
       else children.(Char.code path'.[0]) <- leaf (drop 1 path') value);
      wrap_ext (String.sub p 0 cp) (Node (Branch (children, !bval)))
    end
  | Ext (p, child) ->
    let cp = common_prefix_len p path in
    if cp = String.length p then Node (Ext (p, insert_at db child (drop cp path) value))
    else begin
      let p' = drop cp p and path' = drop cp path in
      let children = Array.make 16 Empty in
      let bval = ref None in
      let c = Char.code p'.[0] in
      children.(c) <- (if String.length p' = 1 then child else Node (Ext (drop 1 p', child)));
      (if path' = "" then bval := Some value
       else children.(Char.code path'.[0]) <- leaf (drop 1 path') value);
      wrap_ext (String.sub p 0 cp) (Node (Branch (children, !bval)))
    end
  | Branch (children, bval) ->
    if path = "" then Node (Branch (children, Some value))
    else begin
      let c = Char.code path.[0] in
      let children = Array.copy children in
      children.(c) <- insert_at db children.(c) (drop 1 path) value;
      Node (Branch (children, bval))
    end

(* ---- deletion (with node collapsing) ----
   An unchanged subtree comes back as the very reference passed in, so
   callers test for change with [==].  Through a stored branch, a child
   that stays non-empty is spliced in; a child that empties changes the
   branch's layout and decodes it. *)

(* Prepend [prefix] nibbles onto whatever node [nref] points to. *)
let reattach db prefix nref =
  if prefix = "" then nref
  else
    match resolve db nref with
    | Leaf (p, v) -> leaf (prefix ^ p) v
    | Ext (p, child) -> Node (Ext (prefix ^ p, child))
    | Branch _ -> Node (Ext (prefix, nref))

(* Rebuild a branch after one child changed, collapsing if it degenerated. *)
let normalize_branch db children bval =
  let live = ref [] in
  Array.iteri (fun i c -> if c != Empty then live := (i, c) :: !live) children;
  match (!live, bval) with
  | [], None -> Empty
  | [], Some v -> leaf "" v
  | [ (i, c) ], None -> reattach db (String.make 1 (Char.chr i)) c
  | _ -> Node (Branch (children, bval))

let rec delete_at db nref path =
  match nref with
  | Empty -> Empty
  | Hash h -> delete_stored db nref (Db.get db h) [] path
  | Patch (enc, patches) -> delete_stored db nref enc patches path
  | Node n -> delete_node db nref n path

and delete_stored db nref enc patches path =
  let sel = if path = "" then 16 else Char.code path.[0] in
  match if path = "" then Empty else patched sel patches with
  | Empty ->
    let at = scan enc sel in
    if at > 0 && sel < 16 && enc.[at] = '\x80' then nref (* no such child *)
    else if at > 0 && sel < 16 && is_hash_item enc at then
      delete_child db nref enc patches sel (child_at enc patches sel at (at + 33)) path
    else delete_node db nref (decode_scanned enc patches at) path
  | c -> delete_child db nref enc patches sel c path

(* A delete through the child [sel] of a stored branch. *)
and delete_child db nref enc patches sel child path =
  let child' = delete_at db child (drop 1 path) in
  if child' == child then nref
  else if child' != Empty then splice enc patches sel child'
  else begin
    let children, bval = decode_branch enc patches in
    children.(sel) <- Empty;
    normalize_branch db children bval
  end

and delete_node db nref n path =
  match n with
  | Leaf (p, _) -> if p = path then Empty else nref
  | Ext (p, child) ->
    let n = String.length p in
    if String.length path >= n && String.sub path 0 n = p then begin
      let child' = delete_at db child (drop n path) in
      if child' == child then nref
      else if child' == Empty then Empty
      else reattach db p child'
    end
    else nref
  | Branch (children, bval) ->
    if path = "" then if bval = None then nref else normalize_branch db children None
    else begin
      let c = Char.code path.[0] in
      let child' = delete_at db children.(c) (drop 1 path) in
      if child' == children.(c) then nref
      else begin
        let children = Array.copy children in
        children.(c) <- child';
        normalize_branch db children bval
      end
    end

(* ---- commit ---- *)

(* Encode and store the dirty nodes under [nref] bottom-up, each once;
   returns the hash [nref] is encoded as in its parent. *)
let rec hash_ref db = function
  | Empty -> ""
  | Hash h -> h
  | Node n -> Db.put db (encode_node (hash_ref db) n)
  | Patch (enc, patches) -> Db.put db (splice_encoding (hash_ref db) enc patches)

(* ---- public interface ---- *)

let empty_root_hash = Khash.Keccak.digest (Rlp.encode (Rlp.Str ""))
let create dbh = { db = dbh; root = Empty }
let of_root dbh root = { db = dbh; root = (if root = empty_root_hash then Empty else Hash root) }

let commit t =
  match t.root with
  | Node _ | Patch _ -> { t with root = Hash (hash_ref t.db t.root) }
  | Empty | Hash _ -> t

let root_hash t = match t.root with Empty -> empty_root_hash | r -> hash_ref t.db r
let is_empty t = t.root == Empty
let get t key = get_ref t.db t.root key 0

let set t key value =
  if value = "" then invalid_arg "Trie.set: empty value (use remove)";
  { t with root = insert_at t.db t.root (to_nibbles key) value }

let remove t key = { t with root = delete_at t.db t.root (to_nibbles key) }

let fold t ~init ~f =
  let rec go acc nref path =
    match nref with
    | Empty -> acc
    | _ -> (
      match resolve t.db nref with
      | Leaf (p, v) -> f acc (of_nibbles (path ^ p)) v
      | Ext (p, child) -> go acc child (path ^ p)
      | Branch (children, value) ->
        let acc = match value with Some v -> f acc (of_nibbles path) v | None -> acc in
        let acc = ref acc in
        Array.iteri (fun i c -> acc := go !acc c (path ^ String.make 1 (Char.chr i))) children;
        !acc)
  in
  go init t.root ""
