module Db = struct
  (* The I/O counters are atomics: speculation worker domains (lib/sched)
     walk tries concurrently, and lost increments would skew the disk-I/O
     proxy the evaluation reports.  The store itself is only read
     concurrently — writers ([put], from commits) run with the worker pool
     quiesced, which the scheduler's block-boundary barrier guarantees. *)
  type t = {
    store : (string, string) Hashtbl.t;
    reads : int Atomic.t;
    writes : int Atomic.t;
  }

  (* process-wide totals across every Db instance (the per-instance counters
     above reset per experiment) *)
  let obs_reads = Obs.counter "trie.node_reads"
  let obs_writes = Obs.counter "trie.node_writes"

  let create () = { store = Hashtbl.create 1024; reads = Atomic.make 0; writes = Atomic.make 0 }
  let node_reads t = Atomic.get t.reads
  let node_writes t = Atomic.get t.writes

  let reset_counters t =
    Atomic.set t.reads 0;
    Atomic.set t.writes 0

  let size t = Hashtbl.length t.store

  let put t encoded =
    let h = Khash.Keccak.digest encoded in
    if not (Hashtbl.mem t.store h) then begin
      Hashtbl.add t.store h encoded;
      Atomic.incr t.writes;
      Obs.incr obs_writes
    end;
    h

  let get t h =
    Atomic.incr t.reads;
    Obs.incr obs_reads;
    match Hashtbl.find_opt t.store h with
    | Some enc -> enc
    | None -> invalid_arg "Trie.Db: missing node (corrupted store or bad root)"
end

(* A node reference is the 32-byte hash of its encoding; "" marks absence. *)
type nref = string

type node =
  | Leaf of string * string (* nibble path (chars with codes 0..15), value *)
  | Ext of string * nref
  | Branch of nref array * string option

type t = { db : Db.t; root : nref }

let db t = t.db

(* ---- nibble helpers ---- *)

let to_nibbles key =
  String.init
    (2 * String.length key)
    (fun i ->
      let b = Char.code key.[i / 2] in
      Char.chr (if i mod 2 = 0 then b lsr 4 else b land 0xf))

let of_nibbles nb =
  String.init
    (String.length nb / 2)
    (fun i -> Char.chr ((Char.code nb.[2 * i] lsl 4) lor Char.code nb.[(2 * i) + 1]))

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

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

let hp_decode s =
  if String.length s = 0 then invalid_arg "Trie.hp_decode: empty";
  let b0 = Char.code s.[0] in
  let is_leaf = b0 land 0x20 <> 0 in
  let odd = b0 land 0x10 <> 0 in
  let rest = to_nibbles (drop 1 s) in
  let nibbles = if odd then String.make 1 (Char.chr (b0 land 0xf)) ^ rest else rest in
  (nibbles, is_leaf)

(* ---- node (de)serialisation ---- *)

let encode_node = function
  | Leaf (path, value) -> Rlp.encode (Rlp.List [ Rlp.Str (hp_encode path true); Rlp.Str value ])
  | Ext (path, child) -> Rlp.encode (Rlp.List [ Rlp.Str (hp_encode path false); Rlp.Str child ])
  | Branch (children, value) ->
    let items = Array.to_list (Array.map (fun c -> Rlp.Str c) children) in
    let v = match value with Some v -> Rlp.Str v | None -> Rlp.Str "" in
    Rlp.encode (Rlp.List (items @ [ v ]))

let decode_node encoded =
  match Rlp.decode encoded with
  | Rlp.List [ Rlp.Str hp; Rlp.Str payload ] ->
    let path, is_leaf = hp_decode hp in
    if is_leaf then Leaf (path, payload) else Ext (path, payload)
  | Rlp.List items when List.length items = 17 ->
    let arr = Array.of_list items in
    let child i =
      match arr.(i) with Rlp.Str s -> s | Rlp.List _ -> invalid_arg "Trie: bad branch child"
    in
    let children = Array.init 16 child in
    let value = match arr.(16) with Rlp.Str "" -> None | Rlp.Str v -> Some v | Rlp.List _ -> None in
    Branch (children, value)
  | _ -> invalid_arg "Trie: bad node encoding"

let store db node = Db.put db (encode_node node)
let load db nref = decode_node (Db.get db nref)

(* ---- lookup ---- *)

let rec get_at dbh nref path =
  if nref = "" then None
  else
    match load dbh nref with
    | Leaf (p, v) -> if p = path then Some v else None
    | Ext (p, child) ->
      let n = String.length p in
      if String.length path >= n && String.sub path 0 n = p then get_at dbh child (drop n path)
      else None
    | Branch (children, value) ->
      if path = "" then value
      else get_at dbh children.(Char.code path.[0]) (drop 1 path)

(* ---- insertion ---- *)

(* Branch child reference for a (possibly empty) remaining path to a leaf. *)
let leaf_child dbh path value = store dbh (Leaf (path, value))

let wrap_ext dbh prefix nref = if prefix = "" then nref else store dbh (Ext (prefix, nref))

let rec insert_at dbh nref path value =
  if nref = "" then store dbh (Leaf (path, value))
  else
    match load dbh nref with
    | Leaf (p, old_v) ->
      if p = path then store dbh (Leaf (p, value))
      else begin
        let cp = common_prefix_len p path in
        let p' = drop cp p and path' = drop cp path in
        let children = Array.make 16 "" in
        let bval = ref None in
        (if p' = "" then bval := Some old_v
         else children.(Char.code p'.[0]) <- leaf_child dbh (drop 1 p') old_v);
        (if path' = "" then bval := Some value
         else children.(Char.code path'.[0]) <- leaf_child dbh (drop 1 path') value);
        wrap_ext dbh (String.sub p 0 cp) (store dbh (Branch (children, !bval)))
      end
    | Ext (p, child) ->
      let cp = common_prefix_len p path in
      if cp = String.length p then
        store dbh (Ext (p, insert_at dbh child (drop cp path) value))
      else begin
        let p' = drop cp p and path' = drop cp path in
        let children = Array.make 16 "" in
        let bval = ref None in
        let c = Char.code p'.[0] in
        children.(c) <- (if String.length p' = 1 then child else store dbh (Ext (drop 1 p', child)));
        (if path' = "" then bval := Some value
         else children.(Char.code path'.[0]) <- leaf_child dbh (drop 1 path') value);
        wrap_ext dbh (String.sub p 0 cp) (store dbh (Branch (children, !bval)))
      end
    | Branch (children, bval) ->
      if path = "" then store dbh (Branch (children, Some value))
      else begin
        let c = Char.code path.[0] in
        let children = Array.copy children in
        children.(c) <- insert_at dbh children.(c) (drop 1 path) value;
        store dbh (Branch (children, bval))
      end

(* ---- deletion (with node collapsing) ---- *)

(* Prepend [prefix] nibbles onto whatever node [nref] points to. *)
let reattach dbh prefix nref =
  if prefix = "" then nref
  else
    match load dbh nref with
    | Leaf (p, v) -> store dbh (Leaf (prefix ^ p, v))
    | Ext (p, child) -> store dbh (Ext (prefix ^ p, child))
    | Branch _ -> store dbh (Ext (prefix, nref))

(* Rebuild a branch after one child changed, collapsing if it degenerated. *)
let normalize_branch dbh children bval =
  let live = ref [] in
  Array.iteri (fun i c -> if c <> "" then live := (i, c) :: !live) children;
  match (!live, bval) with
  | [], None -> ""
  | [], Some v -> store dbh (Leaf ("", v))
  | [ (i, c) ], None -> reattach dbh (String.make 1 (Char.chr i)) c
  | _ -> store dbh (Branch (children, bval))

let rec delete_at dbh nref path =
  if nref = "" then ""
  else
    match load dbh nref with
    | Leaf (p, _) -> if p = path then "" else nref
    | Ext (p, child) ->
      let n = String.length p in
      if String.length path >= n && String.sub path 0 n = p then begin
        let child' = delete_at dbh child (drop n path) in
        if child' = child then nref
        else if child' = "" then ""
        else reattach dbh p child'
      end
      else nref
    | Branch (children, bval) ->
      if path = "" then
        if bval = None then nref else normalize_branch dbh children None
      else begin
        let c = Char.code path.[0] in
        let child' = delete_at dbh children.(c) (drop 1 path) in
        if child' = children.(c) then nref
        else begin
          let children = Array.copy children in
          children.(c) <- child';
          normalize_branch dbh children bval
        end
      end

(* ---- public interface ---- *)

let empty_root_hash = Khash.Keccak.digest (Rlp.encode (Rlp.Str ""))
let create dbh = { db = dbh; root = "" }
let of_root dbh root = { db = dbh; root = (if root = empty_root_hash then "" else root) }
let root_hash t = if t.root = "" then empty_root_hash else t.root
let is_empty t = t.root = ""
let get t key = get_at t.db t.root (to_nibbles key)

let set t key value =
  if value = "" then invalid_arg "Trie.set: empty value (use remove)";
  { t with root = insert_at t.db t.root (to_nibbles key) value }

let remove t key = { t with root = delete_at t.db t.root (to_nibbles key) }

let fold t ~init ~f =
  let rec go acc nref path =
    if nref = "" then acc
    else
      match load t.db nref with
      | Leaf (p, v) -> f acc (of_nibbles (path ^ p)) v
      | Ext (p, child) -> go acc child (path ^ p)
      | Branch (children, value) ->
        let acc = match value with Some v -> f acc (of_nibbles path) v | None -> acc in
        let acc = ref acc in
        Array.iteri
          (fun i c -> acc := go !acc c (path ^ String.make 1 (Char.chr i)))
          children;
        !acc
  in
  go init t.root ""
