module Umap = Hashtbl.Make (struct
  type t = U256.t

  let equal = U256.equal
  let hash = U256.hash
end)

let empty_code_hash = Khash.Keccak.digest ""
let empty_root = Trie.empty_root_hash

module Backend = struct
  (* The code table is the one backend structure speculation can *write*
     concurrently (a CREATE pre-executed on a worker domain stores the
     deployed code), so stores and loads serialize through [code_mu].  The
     critical section is one hashtable probe — uncontended cost is noise
     next to the execution it serves. *)
  type t = { tdb : Trie.Db.t; code : (string, string) Hashtbl.t; code_mu : Mutex.t }

  let create () =
    let code = Hashtbl.create 64 in
    Hashtbl.replace code empty_code_hash "";
    { tdb = Trie.Db.create (); code; code_mu = Mutex.create () }

  let trie_db b = b.tdb
  let io_reads b = Trie.Db.node_reads b.tdb
  let reset_io b = Trie.Db.reset_counters b.tdb

  let store_code b code =
    let h = Khash.Keccak.digest code in
    Mutex.lock b.code_mu;
    Hashtbl.replace b.code h code;
    Mutex.unlock b.code_mu;
    h

  let load_code b h =
    Mutex.lock b.code_mu;
    let c = Hashtbl.find_opt b.code h in
    Mutex.unlock b.code_mu;
    match c with
    | Some c -> c
    | None -> invalid_arg "Statedb: unknown code hash"
end

type touch = T_account of Address.t | T_code of Address.t | T_slot of Address.t * U256.t

(* An account's storage caches, built at its first slot read, committed
   read or write: most accounts a block loads, creates or inherits never
   touch storage, and the records live until commit. *)
type store = {
  slots : U256.t Umap.t; (* cached current values (clean + dirty) *)
  original : U256.t Umap.t; (* committed values, as first read or last committed *)
  slot_keys : string Umap.t;
      (* the [slot_trie_key] each storage-trie read hashed since the last
         [commit]; the next commit writes those slots under them, so a slot
         read then written is hashed once, and drops them all *)
  dirty_slots : unit Umap.t;
}

type acct = {
  addr : Address.t;
  key : string; (* [account_trie_key addr], hashed once per load or creation *)
  mutable nonce : int;
  mutable balance : U256.t;
  mutable code_hash : string;
  mutable storage_base : Trie.t; (* committed storage trie (dirty only inside [commit_acct]) *)
  mutable store : store option; (* [None] until the first slot access *)
  inherited : acct option;
      (* a fork's record of the parent's account, whose committed slot
         values are read at lookup time *)
  mutable dirty_acct : bool;
  mutable destructed : bool;
}

type entry =
  | J_balance of acct * U256.t
  | J_nonce of acct * int
  | J_code of acct * string
  | J_storage of acct * U256.t * U256.t option
  | J_create of Address.t
  | J_destruct of acct

type t = {
  backend : Backend.t;
  mutable base : Trie.t; (* committed account trie (dirty only inside [commit]) *)
  cache : acct option Address.Tbl.t;
  parent : t option; (* a fork's clean parent, read on cache misses *)
  mutable journal : entry list;
  mutable jlen : int;
  mutable tracking : bool;
  mutable touch_log : touch list; (* newest first *)
}

let backend t = t.backend

let obs_hits = Obs.counter "statedb.cache.hits"
let obs_misses = Obs.counter "statedb.cache.misses"
let obs_journal_depth = Obs.gauge "statedb.journal.max_depth"
let obs_commits = Obs.counter "statedb.commits"
let obs_warm = Obs.counter "statedb.warm.touches"
let obs_parent_hits = Obs.counter "statedb.fork.parent_hits"
let obs_slot_key_hashes = Obs.counter "statedb.slot_key_hashes"
let obs_accounts = Obs.counter "statedb.accounts"
let obs_storage_tables = Obs.counter "statedb.storage_tables"

let over ?parent bk base =
  {
    backend = bk;
    base;
    cache = Address.Tbl.create 256;
    parent;
    journal = [];
    jlen = 0;
    tracking = false;
    touch_log = [];
  }

let create bk ~root = over bk (Trie.of_root (Backend.trie_db bk) root)

(* The parent's account trie handle is persistent and clean, so the fork
   shares it; only the parent's caches are consulted, never written. *)
let fork p =
  if p.jlen <> 0 then invalid_arg "Statedb.fork: parent has an open journal";
  over ~parent:p p.backend p.base

let root t = Trie.root_hash t.base
let set_tracking t on = t.tracking <- on
let touches t = List.rev t.touch_log
let clear_touches t = t.touch_log <- []
let touch t what = if t.tracking then t.touch_log <- what :: t.touch_log

let journal_push t e =
  t.journal <- e :: t.journal;
  t.jlen <- t.jlen + 1;
  if !Obs.enabled then Obs.set_max obs_journal_depth (float_of_int t.jlen)

(* ---- account records and slot values, written and read in place ----
   An account record is the list [nonce; balance; storage root; code hash]
   and a slot value one string; each U256 is its minimal big-endian bytes.
   Both are sized, then written into one buffer, and read without an
   [Rlp.item] tree, through the readers [Rlp.decode] reads through. *)

let byte_0x80 = U256.of_int 0x80

(* [v] as an RLP string of its [n = U256.byte_size v] bytes: under a
   header, unless it is one byte below 0x80. *)
let u256_headed v n = not (n = 1 && U256.lt v byte_0x80)
let u256_size v n = (if u256_headed v n then Rlp.header_len n else 0) + n

let put_u256 b pos v n =
  let pos = if u256_headed v n then Rlp.put_header b pos 0x80 n else pos in
  U256.blit_be v (32 - n) b pos n;
  pos + n

let encode_account a storage_root =
  let nb = U256.byte_size a.balance in
  let payload =
    Rlp.int_size a.nonce + u256_size a.balance nb + Rlp.str_size storage_root
    + Rlp.str_size a.code_hash
  in
  let b = Bytes.create (Rlp.header_len payload + payload) in
  let pos = Rlp.put_int b (Rlp.put_header b 0 0xc0 payload) a.nonce in
  let pos = Rlp.put_str b (put_u256 b pos a.balance nb) storage_root in
  ignore (Rlp.put_str b pos a.code_hash);
  Bytes.unsafe_to_string b

let encode_slot v =
  let n = U256.byte_size v in
  let b = Bytes.create (u256_size v n) in
  ignore (put_u256 b 0 v n);
  Bytes.unsafe_to_string b

(* A record of another shape raises what decoding it raises, and [what]
   when it decodes. *)
let bad_record what enc =
  ignore (Rlp.decode enc);
  invalid_arg what

let bad_account = "Statedb: bad account encoding"

(* The end of the account record's string item at [pos]. *)
let field_end enc pos =
  let n = String.length enc in
  if pos >= n || Rlp.is_list enc pos then bad_record bad_account enc else Rlp.item_end enc pos n

let field enc pos stop =
  let a = Rlp.payload_start enc pos in
  String.sub enc a (stop - a)

let account_trie_key addr = Khash.Keccak.digest (Address.to_bytes addr)

let slot_trie_key slot =
  Obs.incr obs_slot_key_hashes;
  Khash.Keccak.digest (U256.to_bytes_be slot)

(* ---- account fetch / creation ---- *)

let new_acct addr key ~nonce ~balance ~code_hash ~storage_base ~inherited =
  Obs.incr obs_accounts;
  {
    addr;
    key;
    nonce;
    balance;
    code_hash;
    storage_base;
    store = None;
    inherited;
    dirty_acct = false;
    destructed = false;
  }

let store_of a =
  match a.store with
  | Some s -> s
  | None ->
    Obs.incr obs_storage_tables;
    let s =
      { slots = Umap.create 8; original = Umap.create 8; slot_keys = Umap.create 8;
        dirty_slots = Umap.create 8 }
    in
    a.store <- Some s;
    s

let load_acct t addr =
  let key = account_trie_key addr in
  match Trie.get t.base key with
  | None -> None
  | Some enc ->
    let n = String.length enc in
    if n = 0 || not (Rlp.is_list enc 0) || Rlp.item_end enc 0 n <> n then
      bad_record bad_account enc;
    let p0 = Rlp.payload_start enc 0 in
    let p1 = Rlp.item_end enc p0 n in
    let p2 = field_end enc p1 in
    let p3 = field_end enc p2 in
    let p4 = field_end enc p3 in
    if p4 <> n then bad_record bad_account enc;
    (* a list nonce fails as [Rlp.decode_int] fails on it, after the
       balance; any malformed item inside it raises first *)
    if Rlp.is_list enc p0 then ignore (Rlp.decode enc);
    let a1 = Rlp.payload_start enc p1 in
    let balance = U256.of_bytes_be ~off:a1 ~len:(p2 - a1) enc in
    Some
      (new_acct addr key ~nonce:(Rlp.int_at enc p0 p1) ~balance ~code_hash:(field enc p3 p4)
         ~storage_base:(Trie.of_root (Backend.trie_db t.backend) (field enc p2 p3))
         ~inherited:None)

(* A fork copies the committed fields of an account its parent has cached:
   the parent is clean, so its cached fields are the committed ones. *)
let inherit_acct t addr =
  match t.parent with
  | None -> load_acct t addr
  | Some p -> (
    match Address.Tbl.find_opt p.cache addr with
    | None -> load_acct t addr
    | Some None ->
      Obs.incr obs_parent_hits;
      None
    | Some (Some pa as inherited) ->
      Obs.incr obs_parent_hits;
      Some
        (new_acct addr pa.key ~nonce:pa.nonce ~balance:pa.balance ~code_hash:pa.code_hash
           ~storage_base:pa.storage_base ~inherited))

let get_acct t addr =
  match Address.Tbl.find_opt t.cache addr with
  | Some binding ->
    Obs.incr obs_hits;
    binding
  | None ->
    Obs.incr obs_misses;
    touch t (T_account addr);
    let binding = inherit_acct t addr in
    Address.Tbl.replace t.cache addr binding;
    binding

let get_or_create t addr =
  match get_acct t addr with
  | Some a -> a
  | None ->
    let a =
      new_acct addr (account_trie_key addr) ~nonce:0 ~balance:U256.zero
        ~code_hash:empty_code_hash
        ~storage_base:(Trie.create (Backend.trie_db t.backend))
        ~inherited:None
    in
    Address.Tbl.replace t.cache addr (Some a);
    journal_push t (J_create addr);
    a

(* ---- reads ---- *)

let account_exists t addr = get_acct t addr <> None

let get_balance t addr =
  match get_acct t addr with Some a -> a.balance | None -> U256.zero

let get_nonce t addr = match get_acct t addr with Some a -> a.nonce | None -> 0

let get_code_hash t addr =
  match get_acct t addr with Some a -> a.code_hash | None -> empty_code_hash

let get_code t addr =
  match get_acct t addr with
  | None -> ""
  | Some a ->
    if a.code_hash <> empty_code_hash then touch t (T_code addr);
    Backend.load_code t.backend a.code_hash

let is_empty_account t addr =
  match get_acct t addr with
  | None -> true
  | Some a -> a.nonce = 0 && U256.is_zero a.balance && a.code_hash = empty_code_hash

let is_destructed t addr =
  match get_acct t addr with Some a -> a.destructed | None -> false

let storage_read_committed t a s slot =
  match Umap.find_opt s.original slot with
  | Some v -> v
  | None ->
    touch t (T_slot (a.addr, slot));
    let inherited =
      match a.inherited with
      | Some { store = Some ps; _ } -> Umap.find_opt ps.original slot
      | Some { store = None; _ } | None -> None
    in
    let v =
      match inherited with
      | Some v ->
        Obs.incr obs_parent_hits;
        v
      | None -> (
        let key = slot_trie_key slot in
        Umap.replace s.slot_keys slot key;
        match Trie.get a.storage_base key with
        | None -> U256.zero
        | Some enc ->
          let n = String.length enc in
          if n = 0 || Rlp.is_list enc 0 || Rlp.item_end enc 0 n <> n then
            bad_record "Statedb: bad slot encoding" enc;
          let a = Rlp.payload_start enc 0 in
          U256.of_bytes_be ~off:a ~len:(n - a) enc)
    in
    Umap.replace s.original slot v;
    v

let get_storage t addr slot =
  match get_acct t addr with
  | None -> U256.zero
  | Some a -> (
    let s = store_of a in
    match Umap.find_opt s.slots slot with
    | Some v ->
      Obs.incr obs_hits;
      v
    | None ->
      Obs.incr obs_misses;
      let v = storage_read_committed t a s slot in
      Umap.replace s.slots slot v;
      v)

let get_committed_storage t addr slot =
  match get_acct t addr with
  | None -> U256.zero
  | Some a -> storage_read_committed t a (store_of a) slot

(* ---- writes (journaled) ---- *)

let set_balance t addr v =
  let a = get_or_create t addr in
  journal_push t (J_balance (a, a.balance));
  a.balance <- v;
  a.dirty_acct <- true

let add_balance t addr v =
  let a = get_or_create t addr in
  journal_push t (J_balance (a, a.balance));
  a.balance <- U256.add a.balance v;
  a.dirty_acct <- true

let sub_balance t addr v =
  let a = get_or_create t addr in
  if U256.lt a.balance v then invalid_arg "Statedb.sub_balance: underflow";
  journal_push t (J_balance (a, a.balance));
  a.balance <- U256.sub a.balance v;
  a.dirty_acct <- true

let set_nonce t addr n =
  let a = get_or_create t addr in
  journal_push t (J_nonce (a, a.nonce));
  a.nonce <- n;
  a.dirty_acct <- true

let incr_nonce t addr = set_nonce t addr (get_nonce t addr + 1)

let set_code t addr code =
  let a = get_or_create t addr in
  journal_push t (J_code (a, a.code_hash));
  a.code_hash <- Backend.store_code t.backend code;
  a.dirty_acct <- true

let set_storage t addr slot v =
  let a = get_or_create t addr in
  let s = store_of a in
  journal_push t (J_storage (a, slot, Umap.find_opt s.slots slot));
  Umap.replace s.slots slot v;
  Umap.replace s.dirty_slots slot ();
  a.dirty_acct <- true

let self_destruct t addr =
  match get_acct t addr with
  | None -> ()
  | Some a ->
    journal_push t (J_destruct a);
    a.destructed <- true

(* ---- snapshot / revert ---- *)

let snapshot t = t.jlen

let undo t = function
  | J_balance (a, v) -> a.balance <- v
  | J_nonce (a, n) -> a.nonce <- n
  | J_code (a, h) -> a.code_hash <- h
  | J_storage (a, k, prev) -> (
    (* the write built the store, so [store_of] only fetches it *)
    let s = store_of a in
    match prev with Some v -> Umap.replace s.slots k v | None -> Umap.remove s.slots k)
  | J_create addr -> Address.Tbl.replace t.cache addr None
  | J_destruct a -> a.destructed <- false

let revert t snap =
  if snap > t.jlen then invalid_arg "Statedb.revert: stale snapshot";
  while t.jlen > snap do
    (match t.journal with
    | e :: rest ->
      undo t e;
      t.journal <- rest
    | [] -> assert false);
    t.jlen <- t.jlen - 1
  done

(* ---- effect extraction (parallel block execution) ---- *)

type change = {
  ch_addr : Address.t;
  ch_balance : U256.t option;
  ch_nonce : int option;
  ch_code_hash : string option;
  ch_slots : (U256.t * U256.t) list;
  ch_created : bool;
  ch_destructed : bool;
}

(* Accumulator per touched address while scanning the journal suffix.  A
   transaction touches a handful of addresses, so they sit in a list. *)
type ch_acc = {
  c_addr : Address.t;
  mutable f_balance : bool;
  mutable f_nonce : bool;
  mutable f_code : bool;
  mutable f_created : bool;
  mutable f_slots : U256.t list; (* written slots, newest first, repeats kept *)
}

(* The written slots, sorted and deduplicated, with their final values. *)
let final_slots a = function
  | [] -> []
  | written ->
    let ks = Array.of_list written in
    Array.stable_sort U256.compare ks;
    let final k =
      match a.store with
      | Some s -> Option.value ~default:U256.zero (Umap.find_opt s.slots k)
      | None -> U256.zero
    in
    let last = Array.length ks - 1 in
    let slots = ref [] in
    for i = last downto 0 do
      if i = last || not (U256.equal ks.(i) ks.(i + 1)) then
        slots := (ks.(i), final ks.(i)) :: !slots
    done;
    !slots

let changes_since t snap =
  if snap > t.jlen then invalid_arg "Statedb.changes_since: stale snapshot";
  let accs = ref [] in
  let rec find addr = function
    | c :: rest -> if Address.equal c.c_addr addr then c else find addr rest
    | [] ->
      let c =
        { c_addr = addr; f_balance = false; f_nonce = false; f_code = false;
          f_created = false; f_slots = [] }
      in
      accs := c :: !accs;
      c
  in
  let acc_of addr = find addr !accs in
  (* walk the (newest-first) journal down to the snapshot mark *)
  let rec scan n entries =
    if n > 0 then
      match entries with
      | [] -> assert false
      | e :: rest ->
        (match e with
        | J_balance (a, _) -> (acc_of a.addr).f_balance <- true
        | J_nonce (a, _) -> (acc_of a.addr).f_nonce <- true
        | J_code (a, _) -> (acc_of a.addr).f_code <- true
        | J_storage (a, k, _) ->
          let c = acc_of a.addr in
          c.f_slots <- k :: c.f_slots
        | J_create addr -> (acc_of addr).f_created <- true
        | J_destruct a -> ignore (acc_of a.addr));
        scan (n - 1) rest
  in
  scan (t.jlen - snap) t.journal;
  (* read the *final* values out of the cache: extraction happens right
     after the execution whose effects we are lifting, with no intervening
     revert, so the cached account state is the post-state *)
  List.fold_left
    (fun changes c ->
      match get_acct t c.c_addr with
      | None ->
        (* created then fully reverted inside the window: no net effect *)
        changes
      | Some a ->
        {
          ch_addr = c.c_addr;
          ch_balance = (if c.f_balance then Some a.balance else None);
          ch_nonce = (if c.f_nonce then Some a.nonce else None);
          ch_code_hash = (if c.f_code then Some a.code_hash else None);
          ch_slots = final_slots a c.f_slots;
          ch_created = c.f_created;
          ch_destructed = a.destructed;
        }
        :: changes)
    [] !accs
  |> List.sort (fun a b -> Address.compare a.ch_addr b.ch_addr)

let set_code_hash t addr h =
  let a = get_or_create t addr in
  journal_push t (J_code (a, a.code_hash));
  a.code_hash <- h;
  a.dirty_acct <- true

let apply_changes t changes =
  List.iter
    (fun ch ->
      if ch.ch_destructed then begin
        (* destruct wins: commit removes the account wholesale, so replaying
           the intermediate writes would be dead work *)
        if ch.ch_created then ignore (get_or_create t ch.ch_addr);
        self_destruct t ch.ch_addr
      end
      else begin
        if ch.ch_created then ignore (get_or_create t ch.ch_addr);
        Option.iter (set_balance t ch.ch_addr) ch.ch_balance;
        Option.iter (set_nonce t ch.ch_addr) ch.ch_nonce;
        Option.iter (set_code_hash t ch.ch_addr) ch.ch_code_hash;
        List.iter (fun (k, v) -> set_storage t ch.ch_addr k v) ch.ch_slots
      end)
    changes

(* ---- commit ---- *)

let commit_acct t a =
  (* Flush dirty slots into the storage trie. *)
  (match a.store with
  | None -> ()
  | Some s ->
    let dirty = Umap.fold (fun k () acc -> k :: acc) s.dirty_slots [] in
    List.iter
      (fun k ->
        match Umap.find_opt s.slots k with
        | None -> ()
        | Some v ->
          let key =
            match Umap.find_opt s.slot_keys k with Some key -> key | None -> slot_trie_key k
          in
          (if U256.is_zero v then a.storage_base <- Trie.remove a.storage_base key
           else
             a.storage_base <- Trie.set a.storage_base key (encode_slot v));
          Umap.replace s.original k v)
      dirty;
    Umap.reset s.dirty_slots);
  a.storage_base <- Trie.commit a.storage_base;
  let empty =
    a.nonce = 0 && U256.is_zero a.balance && a.code_hash = empty_code_hash
    && Trie.is_empty a.storage_base
  in
  if empty then t.base <- Trie.remove t.base a.key
  else t.base <- Trie.set t.base a.key (encode_account a (Trie.root_hash a.storage_base));
  a.dirty_acct <- false

let commit t =
  Obs.incr obs_commits;
  Obs.span "statedb.commit" @@ fun () ->
  (* The root does not depend on the order accounts enter the trie.  The
     bindings are walked as a snapshot list because destructs rewrite the
     table. *)
  let bindings = Address.Tbl.fold (fun addr b acc -> (addr, b) :: acc) t.cache [] in
  List.iter
    (fun (addr, binding) ->
      match binding with
      | None -> ()
      | Some a ->
        if a.destructed then begin
          t.base <- Trie.remove t.base a.key;
          Address.Tbl.replace t.cache addr None
        end
        else begin
          match a.store with
          | None -> if a.dirty_acct then commit_acct t a
          | Some s ->
            if a.dirty_acct || Umap.length s.dirty_slots > 0 then commit_acct t a;
            Umap.reset s.slot_keys
        end)
    bindings;
  t.base <- Trie.commit t.base;
  t.journal <- [];
  t.jlen <- 0;
  root t

(* ---- prefetch ---- *)

let warm t touch_list =
  let was = t.tracking in
  t.tracking <- false;
  Obs.add obs_warm (List.length touch_list);
  List.iter
    (fun tc ->
      match tc with
      | T_account addr -> ignore (get_acct t addr)
      | T_code addr -> ignore (get_code t addr)
      | T_slot (addr, slot) -> ignore (get_storage t addr slot))
    touch_list;
  t.tracking <- was
