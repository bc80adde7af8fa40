(* Merkle-Patricia trie tests: commitment semantics (equal contents <=>
   equal roots), persistence, deletion with node collapsing, and a
   model-based property test against Map. *)

let t name f = Alcotest.test_case name `Quick f
let hex = Khash.Keccak.to_hex

let fresh () = Trie.create (Trie.Db.create ())

let with_bindings l =
  List.fold_left (fun tr (k, v) -> Trie.set tr k v) (fresh ()) l

let unit_tests =
  [ t "empty root constant" (fun () ->
        Alcotest.(check string) "well-known hash"
          "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
          (hex Trie.empty_root_hash);
        Alcotest.(check string) "fresh trie" (hex Trie.empty_root_hash)
          (hex (Trie.root_hash (fresh ()))));
    t "get after set" (fun () ->
        let tr = with_bindings [ ("key", "value") ] in
        Alcotest.(check (option string)) "hit" (Some "value") (Trie.get tr "key");
        Alcotest.(check (option string)) "miss" None (Trie.get tr "kex"));
    t "overwrite" (fun () ->
        let tr = with_bindings [ ("k", "v1"); ("k", "v2") ] in
        Alcotest.(check (option string)) "latest" (Some "v2") (Trie.get tr "k"));
    t "insertion order independence" (fun () ->
        let l = [ ("do", "verb"); ("dog", "puppy"); ("doge", "coin"); ("horse", "stallion") ] in
        let a = with_bindings l and b = with_bindings (List.rev l) in
        Alcotest.(check string) "same root" (hex (Trie.root_hash a)) (hex (Trie.root_hash b)));
    t "common-prefix splitting" (fun () ->
        let tr = with_bindings [ ("abcdef", "1"); ("abcxyz", "2"); ("abc", "3") ] in
        Alcotest.(check (option string)) "deep 1" (Some "1") (Trie.get tr "abcdef");
        Alcotest.(check (option string)) "deep 2" (Some "2") (Trie.get tr "abcxyz");
        Alcotest.(check (option string)) "prefix key" (Some "3") (Trie.get tr "abc"));
    t "persistence of old roots" (fun () ->
        let t1 = with_bindings [ ("a", "1") ] in
        let t2 = Trie.set t1 "b" "2" in
        Alcotest.(check (option string)) "old handle unaffected" None (Trie.get t1 "b");
        Alcotest.(check (option string)) "new handle has both" (Some "1") (Trie.get t2 "a"));
    t "reopen by root" (fun () ->
        let tr = with_bindings [ ("x", "42"); ("y", "43") ] in
        let reopened = Trie.of_root (Trie.db tr) (Trie.root_hash tr) in
        Alcotest.(check (option string)) "x" (Some "42") (Trie.get reopened "x");
        Alcotest.(check (option string)) "y" (Some "43") (Trie.get reopened "y"));
    t "delete restores previous root" (fun () ->
        let base = with_bindings [ ("a", "1"); ("b", "2"); ("c", "3") ] in
        let bigger = Trie.set base "tmp" "x" in
        let back = Trie.remove bigger "tmp" in
        Alcotest.(check string) "root restored" (hex (Trie.root_hash base))
          (hex (Trie.root_hash back)));
    t "delete absent is noop" (fun () ->
        let tr = with_bindings [ ("a", "1") ] in
        Alcotest.(check string) "unchanged" (hex (Trie.root_hash tr))
          (hex (Trie.root_hash (Trie.remove tr "zzz"))));
    t "delete to empty" (fun () ->
        let tr = with_bindings [ ("only", "1") ] in
        let tr = Trie.remove tr "only" in
        Alcotest.(check bool) "empty" true (Trie.is_empty tr);
        Alcotest.(check string) "empty root" (hex Trie.empty_root_hash)
          (hex (Trie.root_hash tr)));
    t "branch collapse on delete" (fun () ->
        (* removing one of two siblings must collapse the branch so the root
           equals a fresh single-entry trie *)
        let two = with_bindings [ ("cat", "1"); ("car", "2") ] in
        let one = Trie.remove two "car" in
        let direct = with_bindings [ ("cat", "1") ] in
        Alcotest.(check string) "collapsed" (hex (Trie.root_hash direct))
          (hex (Trie.root_hash one)));
    t "set rejects empty value" (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument "Trie.set: empty value (use remove)")
          (fun () -> ignore (Trie.set (fresh ()) "k" "")));
    t "fold visits all bindings" (fun () ->
        let l = [ ("a", "1"); ("ab", "2"); ("abc", "3"); ("b", "4"); ("zzzz", "5") ] in
        let tr = with_bindings l in
        let seen = Trie.fold tr ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
        Alcotest.(check int) "count" (List.length l) (List.length seen);
        List.iter
          (fun (k, v) ->
            Alcotest.(check bool) ("has " ^ k) true (List.mem (k, v) seen))
          l);
    t "node reads counted" (fun () ->
        (* loads are counted from the store, so read a committed trie; a
           path that is still dirty lives in memory and costs no loads *)
        let db = Trie.Db.create () in
        let dirty = List.fold_left (fun tr i ->
            Trie.set tr (Printf.sprintf "key-%04d" i) "v") (Trie.create db) (List.init 50 Fun.id) in
        let tr = Trie.commit dirty in
        Trie.Db.reset_counters db;
        ignore (Trie.get tr "key-0001");
        Alcotest.(check bool) "reads > 0" true (Trie.Db.node_reads db > 0);
        Trie.Db.reset_counters db;
        Alcotest.(check (option string)) "dirty hit" (Some "v") (Trie.get dirty "key-0001");
        Alcotest.(check int) "dirty path reads" 0 (Trie.Db.node_reads db));
    t "commit stores only the final trie's nodes" (fun () ->
        (* nodes that a later write replaced are never stored, so the
           writes of one commit depend on the contents, not on the history *)
        let commit_of bindings =
          let db = Trie.Db.create () in
          let tr = List.fold_left (fun tr (k, v) -> Trie.set tr k v) (Trie.create db) bindings in
          Alcotest.(check int) "nothing stored before commit" 0 (Trie.Db.size db);
          (db, tr, Trie.commit tr)
        in
        let keys = List.init 50 (Printf.sprintf "key-%04d") in
        let db, tr, c = commit_of (List.map (fun k -> (k, "w")) keys) in
        let db', _, _ =
          commit_of (List.map (fun k -> (k, "v")) keys @ List.rev_map (fun k -> (k, "w")) keys)
        in
        Alcotest.(check int) "overwritten and reordered history" (Trie.Db.node_writes db)
          (Trie.Db.node_writes db');
        Alcotest.(check string) "same root" (hex (Trie.root_hash tr)) (hex (Trie.root_hash c));
        let writes = Trie.Db.node_writes db in
        ignore (Trie.commit c);
        Alcotest.(check int) "committing a clean handle writes nothing" writes
          (Trie.Db.node_writes db));
    t "handle taken before commit keeps its contents" (fun () ->
        let base = Trie.commit (with_bindings [ ("a", "1"); ("b", "2") ]) in
        let before = Trie.set base "c" "3" in
        let after = Trie.commit (Trie.remove (Trie.set before "a" "9") "b") in
        Alcotest.(check (option string)) "old a" (Some "1") (Trie.get before "a");
        Alcotest.(check (option string)) "old b" (Some "2") (Trie.get before "b");
        Alcotest.(check (option string)) "old c" (Some "3") (Trie.get before "c");
        Alcotest.(check (option string)) "new a" (Some "9") (Trie.get after "a");
        Alcotest.(check (option string)) "new b" None (Trie.get after "b");
        Alcotest.(check (option string)) "base c" None (Trie.get base "c");
        let reopened = Trie.of_root (Trie.db before) (Trie.root_hash before) in
        Alcotest.(check (option string)) "reopened c" (Some "3") (Trie.get reopened "c"))
  ]

(* Golden roots: hex roots of fixed tries, computed on the trie that stored
   and hashed every node at every write.  Any rewrite of the node layout,
   the write path or the commit pass must reproduce them byte for byte. *)

let golden_value i =
  let c = Char.chr (i land 0xff) in
  match i mod 6 with
  | 0 -> String.make 1 (Char.chr (i land 0x7f)) (* one byte below 0x80 *)
  | 1 -> String.make 1 (Char.chr (0x80 lor (i land 0x7f))) (* one byte >= 0x80 *)
  | 2 -> String.make 31 c
  | 3 -> String.make 55 c
  | 4 -> String.make 56 c
  | _ -> String.make 200 c

let golden_key i = Khash.Keccak.digest (string_of_int i)

let golden_full () =
  List.fold_left (fun tr i -> Trie.set tr (golden_key i) (golden_value i)) (fresh ())
    (List.init 2000 Fun.id)

let golden_pruned () =
  List.fold_left
    (fun tr i -> if i mod 3 = 0 then Trie.remove tr (golden_key i) else tr)
    (golden_full ()) (List.init 2000 Fun.id)

let check_root name expected tr =
  Alcotest.(check string) name expected (hex (Trie.root_hash tr))

(* [check_gets tr l] checks each (key, expected value) of [l] both on the
   dirty handle [tr] and on its committed, stored copy *)
let check_gets tr l =
  List.iter
    (fun tr ->
      List.iter (fun (k, v) -> Alcotest.(check (option string)) (hex k) v (Trie.get tr k)) l)
    [ tr; Trie.commit tr ]

let golden_tests =
  [ t "golden: 2000 keccak keys" (fun () ->
        let tr = golden_full () in
        check_root "root"
          "b37a40f2f41780dac34220a07fbe739620cf4f214c1e59c86ab87b09664b15af" tr;
        check_gets tr
          (List.map (fun i -> (golden_key i, Some (golden_value i))) [ 0; 1; 2; 3; 4; 5; 1999 ]
          @ [ (Khash.Keccak.digest "absent", None); (golden_key 1 ^ "\x00", None);
              (String.sub (golden_key 2) 0 31, None); ("", None) ]));
    t "golden: every third key removed" (fun () ->
        let tr = golden_pruned () in
        check_root "root"
          "4f558235cf98b2b0979f4624359f99d6666200f12d0e2f4d2b76ad2d374d9fb4" tr;
        check_gets tr [ (golden_key 3, None); (golden_key 4, Some (golden_value 4)) ]);
    t "golden: root branch with a value" (fun () ->
        let tr =
          with_bindings
            [ ("", "root-value"); ("\x01", "a"); ("\x01\x02", "b"); ("\x11", "c");
              ("\x12\x34", String.make 40 'd') ]
        in
        check_root "root"
          "1169c4ada809ee0d364d661e2fd870604ce8faec2b38e8c9bf16fc1a257d5b66" tr;
        check_gets tr
          [ ("", Some "root-value"); ("\x01", Some "a"); ("\x01\x02", Some "b");
            ("\x01\x02\x03", None); ("\x12", None); ("\x12\x34", Some (String.make 40 'd'));
            ("\x12\x35", None); ("\x02", None) ]);
    t "golden: single leaf" (fun () ->
        let tr = with_bindings [ (golden_key 7, "v") ] in
        check_root "root" "a4bb6699da341832dd49739a51c5b79d836b39d803afd06de86c96d9cbaea6fb" tr;
        check_gets tr [ (golden_key 7, Some "v"); (golden_key 8, None) ])
  ]

(* model-based: random interleavings of set/remove compared against a Map *)
module SMap = Map.Make (String)

let arb_ops =
  let open QCheck.Gen in
  let key = map (fun i -> Printf.sprintf "k%02d" (i mod 24)) small_nat in
  let op =
    frequency
      [ (4, map2 (fun k v -> `Set (k, Printf.sprintf "v%d" v)) key small_nat);
        (1, map (fun k -> `Remove k) key) ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map (function `Set (k, v) -> "set " ^ k ^ "=" ^ v | `Remove k -> "del " ^ k) ops))
    (list_size (int_bound 60) op)

let property_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"agrees with Map model" arb_ops (fun ops ->
           let tr, model =
             List.fold_left
               (fun (tr, m) op ->
                 match op with
                 | `Set (k, v) -> (Trie.set tr k v, SMap.add k v m)
                 | `Remove k -> (Trie.remove tr k, SMap.remove k m))
               (fresh (), SMap.empty) ops
           in
           SMap.for_all (fun k v -> Trie.get tr k = Some v) model
           && Trie.fold tr ~init:true ~f:(fun acc k v ->
                  acc && SMap.find_opt k model = Some v)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"commit points do not change results"
         QCheck.(pair arb_ops (list_of_size Gen.(int_bound 8) small_nat))
         (fun (ops, points) ->
           (* the same ops, once never committed and once committed after
              each op whose index is in [points] *)
           let apply commit_at =
             List.fold_left
               (fun (tr, i) op ->
                 let tr =
                   match op with `Set (k, v) -> Trie.set tr k v | `Remove k -> Trie.remove tr k
                 in
                 ((if commit_at i then Trie.commit tr else tr), i + 1))
               (fresh (), 0) ops
             |> fst
           in
           let plain = apply (fun _ -> false) in
           let committed = apply (fun i -> List.mem i points) in
           let bindings tr = List.rev (Trie.fold tr ~init:[] ~f:(fun acc k v -> (k, v) :: acc)) in
           let keys = List.init 24 (Printf.sprintf "k%02d") in
           String.equal (Trie.root_hash plain) (Trie.root_hash committed)
           && List.for_all (fun k -> Trie.get plain k = Trie.get committed k) keys
           && bindings plain = bindings committed));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"root is content-determined" arb_ops (fun ops ->
           (* apply ops, then rebuild the final content directly: roots match *)
           let tr, model =
             List.fold_left
               (fun (tr, m) op ->
                 match op with
                 | `Set (k, v) -> (Trie.set tr k v, SMap.add k v m)
                 | `Remove k -> (Trie.remove tr k, SMap.remove k m))
               (fresh (), SMap.empty) ops
           in
           let direct =
             SMap.fold (fun k v tr -> Trie.set tr k v) model (fresh ())
           in
           String.equal (Trie.root_hash tr) (Trie.root_hash direct)))
  ]

(* ---- codec: against Trie_ref, the Rlp.item-built reference ---- *)

(* Keys are random, 32-byte Keccak digests as in a secure trie, or
   prefixes of three 40-byte stems, two of which part at an odd nibble:
   shared prefixes give extension nodes and branch values, lengths of 1 to
   40 bytes give odd and even paths, and digests sharing a first nibble
   give leaves at even depth next to ones at odd depth.  Values straddle
   the string header's short/long boundary (55/56 bytes). *)
let stems =
  let s0 = Khash.Keccak.digest "stem0" ^ String.sub (Khash.Keccak.digest "tail0") 0 8 in
  let b5 = Char.code s0.[5] in
  let s1 =
    String.sub s0 0 5
    ^ String.make 1 (Char.chr ((b5 land 0xf0) lor ((b5 + 1) land 0x0f)))
    ^ String.sub (Khash.Keccak.digest "stem1" ^ Khash.Keccak.digest "tail1") 0 34
  in
  [| s0; s1; Khash.Keccak.digest "stem2" ^ String.sub (Khash.Keccak.digest "tail2") 0 8 |]

let arb_codec_ops =
  let open QCheck.Gen in
  let key =
    frequency
      [ (3, map2 (fun s n -> String.sub stems.(s) 0 n) (int_bound 2) (int_range 1 40));
        (1, string_size ~gen:char (int_range 1 40));
        (2, map (fun i -> Khash.Keccak.digest (string_of_int i)) (int_bound 40)) ]
  in
  let value = map2 String.make (oneofl [ 1; 55; 56; 101; 300 ]) char in
  let op =
    frequency
      [ (6, map2 (fun k v -> `Set (k, v)) key value); (2, map (fun k -> `Remove k) key);
        (1, return `Commit) ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Set (k, v) -> Printf.sprintf "set %s=%d bytes" (hex k) (String.length v)
             | `Remove k -> "del " ^ hex k
             | `Commit -> "commit")
           ops))
    (list_size (int_bound 80) op)

(* Malformed stored nodes: each would decode under a lax reader. *)
let malformed =
  let l items = Rlp.encode (Rlp.List items) and s x = Rlp.Str x in
  [ ("non-minimal list length", "\xf8\x02\x20v");
    ("non-minimal string length", "\xc4\x20\xb8\x01v");
    ("non-minimal single byte", "\xc3\x20\x81v");
    ("trailing bytes", l [ s "\x20"; s "v" ] ^ "\x00");
    ("one item", l [ s "\x20" ]);
    ("three items", l [ s "\x20"; s "v"; s "w" ]);
    ("eighteen items", l (List.init 18 (fun _ -> s "")));
    ("list item", l [ s "\x20"; Rlp.List [ s "v" ] ]);
    ("list value in a branch", l (List.init 16 (fun _ -> s "") @ [ Rlp.List [] ]));
    ("empty hex-prefix path", l [ s ""; s "v" ]);
    (* the list header covers the bytes present, but the last item's 0xa0
       header promises 32 bytes where 31 remain *)
    ("last 0xa0 item cut short", "\xe1\x00\xa0" ^ String.make 31 'h');
    ( "branch whose last 0xa0 item is cut short",
      let payload = String.make 16 '\x80' ^ "\xa0" ^ String.make 31 'h' in
      String.make 1 (Char.chr (0xc0 + String.length payload)) ^ payload );
    (* both items take the fast skips; the empty path still raises *)
    ("0x80 then 0xa0", l [ s ""; s (String.make 32 'h') ]) ]

(* [k] with the low bit of nibble [j] flipped *)
let flip_nibble k j =
  String.mapi
    (fun i c -> if i <> j lsr 1 then c else Char.chr (Char.code c lxor if j land 1 = 0 then 0x10 else 1))
    k

(* Keys next to [k]: its last nibble changed, its last byte changed, and
   each nibble changed in turn, so the first nibble of every leaf and
   extension path on [k]'s walk is probed, whatever its depth's parity. *)
let near_misses k =
  let n = String.length k in
  (String.sub k 0 (n - 1) ^ String.make 1 (Char.chr (Char.code k.[n - 1] lxor 0xff)))
  :: List.init (2 * n) (flip_nibble k)

let raises f =
  match f () with _ -> false | exception (Invalid_argument _ | Rlp.Decode_error _) -> true

let codec_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"root equals the reference root" arb_codec_ops
         (fun ops ->
           let tr, model =
             List.fold_left
               (fun (tr, m) op ->
                 match op with
                 | `Set (k, v) -> (Trie.set tr k v, SMap.add k v m)
                 | `Remove k -> (Trie.remove tr k, SMap.remove k m)
                 | `Commit -> (Trie.commit tr, m))
               (fresh (), SMap.empty) ops
           in
           let stored = Trie.commit tr in
           String.equal (Trie.root_hash tr) (Trie_ref.root (SMap.bindings model))
           && SMap.for_all (fun k v -> Trie.get stored k = Some v) model
           && SMap.for_all
                (fun k _ ->
                  List.for_all (fun k' -> Trie.get stored k' = SMap.find_opt k' model) (near_misses k))
                model));
    t "lookups miss next to leaves at odd and even depth" (fun () ->
        (* under the root branch, [a] is a leaf from depth 1 and [b], [c]
           are leaves from depth 2 under a branch at depth 1 *)
        let tail i = String.sub (Khash.Keccak.digest (string_of_int i)) 1 31 in
        let a = "\x10" ^ tail 0 and b = "\x21" ^ tail 1 and c = "\x22" ^ tail 2 in
        let tr = with_bindings [ (a, "a"); (b, "b"); (c, "c") ] in
        check_gets tr [ (a, Some "a"); (b, Some "b"); (c, Some "c") ];
        List.iter
          (fun k -> check_gets tr (List.map (fun k' -> (k', None)) (near_misses k)))
          [ a; b; c ]);
    t "malformed stored nodes raise" (fun () ->
        List.iter
          (fun (name, enc) ->
            let db = Trie.Db.create () in
            let tr = Trie.of_root db (Trie.Db.put db enc) in
            Alcotest.(check bool) (name ^ ": get") true (raises (fun () -> Trie.get tr "k"));
            Alcotest.(check bool) (name ^ ": set") true
              (raises (fun () -> Trie.set tr "k" "x")))
          malformed) ]

(* ---- writes through stored nodes ----
   After a commit, a write through a stored branch or extension splices the
   new child's hash into the stored encoding; only a layout change decodes
   the node.  Each case checks the root against [Trie_ref], every lookup
   and near miss, and [fold], on the dirty handle and once committed. *)

let decodes = Obs.counter "trie.node_decodes"
let splices = Obs.counter "trie.node_splices"

(* [f ()] with Obs on, and the stored-node decodes and splices it made. *)
let counted f =
  let was = !Obs.enabled in
  Obs.set_enabled true;
  let d0 = Obs.count decodes and s0 = Obs.count splices in
  let r = Fun.protect ~finally:(fun () -> Obs.set_enabled was) f in
  (r, Obs.count decodes - d0, Obs.count splices - s0)

let of_model m = SMap.fold (fun k v tr -> Trie.set tr k v) m (fresh ())

let check_model name m tr =
  let bindings tr = List.sort compare (Trie.fold tr ~init:[] ~f:(fun acc k v -> (k, v) :: acc)) in
  List.iter
    (fun (side, tr) ->
      let name = name ^ " (" ^ side ^ ")" in
      Alcotest.(check (list (pair string string))) (name ^ ": fold") (SMap.bindings m) (bindings tr);
      SMap.iter
        (fun k _ ->
          List.iter
            (fun k' ->
              Alcotest.(check (option string)) (name ^ ": get " ^ hex k') (SMap.find_opt k' m)
                (Trie.get tr k'))
            (if k = "" then [ k ] else k :: near_misses k))
        m;
      Alcotest.(check string) (name ^ ": root") (hex (Trie_ref.root (SMap.bindings m)))
        (hex (Trie.root_hash tr)))
    [ ("dirty", tr); ("committed", Trie.commit tr) ]

(* Apply [ops] to the trie and to the model alike. *)
let apply_ops (tr, m) ops =
  List.fold_left
    (fun (tr, m) op ->
      match op with
      | `Set (k, v) -> (Trie.set tr k v, SMap.add k v m)
      | `Remove k -> (Trie.remove tr k, SMap.remove k m))
    (tr, m) ops

let splice_key i = Khash.Keccak.digest ("splice" ^ string_of_int i)

(* 300 keccak keys: a full root branch over full second-level branches. *)
let splice_base () =
  let m = SMap.of_seq (Seq.init 300 (fun i -> (splice_key i, String.make (1 + (i mod 40)) 'b'))) in
  (Trie.commit (of_model m), m)

(* [k] with its first nibble set to [n]. *)
let with_nibble n k =
  String.mapi (fun i c -> if i = 0 then Char.chr ((n lsl 4) lor (Char.code c land 0xf)) else c) k

let splice_tests =
  [ t "overwrites through stored branches decode no node" (fun () ->
        let base, m = splice_base () in
        let ops = List.init 40 (fun i -> `Set (splice_key (7 * i), "new" ^ string_of_int i)) in
        let (tr, m), d, s = counted (fun () -> apply_ops (base, m) ops) in
        Alcotest.(check int) "decodes" 0 d;
        Alcotest.(check bool) (Printf.sprintf "%d splices, two or more per write" s) true (s >= 80);
        check_model "overwrites" m tr);
    t "sets and removes through stored branches" (fun () ->
        let base, m = splice_base () in
        let ops =
          List.concat
            (List.init 30 (fun i ->
                 [ `Set (splice_key (300 + i), "fresh"); `Remove (splice_key (10 * i));
                   `Set (splice_key ((10 * i) + 3), String.make 60 'o') ]))
        in
        let (tr, m), _, s = counted (fun () -> apply_ops (base, m) ops) in
        Alcotest.(check bool) "splices" true (s > 0);
        check_model "sets and removes" m tr;
        (* and again through the patched, still dirty nodes *)
        let more = List.init 30 (fun i -> `Set (splice_key ((10 * i) + 4), "again")) in
        let tr, m = apply_ops (tr, m) (more @ List.init 10 (fun i -> `Remove (splice_key (300 + i)))) in
        check_model "second window" m tr);
    t "a child added where the item was 0x80, and a branch collapsing to one child" (fun () ->
        let tail i = String.sub (Khash.Keccak.digest (string_of_int i)) 1 31 in
        let a = "\x11" ^ tail 0 and b = "\x12" ^ tail 1 and c = "\x20" ^ tail 2 in
        let m = SMap.of_seq (List.to_seq [ (a, "a"); (b, "b"); (c, "c") ]) in
        let base = Trie.commit (of_model m) in
        (* the root's item for nibble 5 is 0x80: a layout change *)
        let e = "\x50" ^ tail 3 in
        let (tr, m'), d, _ = counted (fun () -> apply_ops (base, m) [ `Set (e, "e") ]) in
        Alcotest.(check int) "the root decoded" 1 d;
        check_model "child added" m' tr;
        (* removing b leaves its branch one child: it folds into a leaf,
           and the root takes the new child by a splice *)
        let (tr, m'), _, s = counted (fun () -> apply_ops (base, m) [ `Remove b ]) in
        Alcotest.(check int) "root spliced" 1 s;
        check_model "collapse under the root" m' tr;
        (* then the root itself is left one child *)
        let tr, m' = apply_ops (tr, m') [ `Remove c ] in
        check_model "collapse of the root" m' tr);
    t "branch values through stored nodes" (fun () ->
        let m =
          SMap.of_seq
            (List.to_seq
               [ ("", "root"); ("\x01", "one"); ("\x01\x02", "two"); ("\x01\x03", "three");
                 ("\x01\x03\x04", String.make 50 'f'); ("\x02", "x") ])
        in
        let base = Trie.commit (of_model m) in
        List.iter
          (fun (name, ops) ->
            let tr, m = apply_ops (base, m) ops in
            check_model name m tr)
          [ ("root value overwritten", [ `Set ("", "ROOT") ]);
            ("inner value overwritten", [ `Set ("\x01", "ONE") ]);
            ("child under a valued branch", [ `Set ("\x01\x03\x04", "deep") ]);
            ("new child under a valued branch", [ `Set ("\x01\x05", "five") ]);
            ("inner value removed", [ `Remove "\x01" ]);
            ("root value removed", [ `Remove "" ]);
            ("value added to a stored branch", [ `Set ("\x01\x03\x04\x05", "v"); `Set ("\x01\x03\x04", "w") ]);
            ("children removed around a value", [ `Remove "\x01\x02"; `Remove "\x01\x03\x04" ]) ]);
    t "overwriting and then removing one key inside one window" (fun () ->
        let base, m = splice_base () in
        let k = splice_key 42 in
        let tr, m' = apply_ops (base, m) [ `Set (k, "over"); `Remove k ] in
        check_model "overwrite, remove" m' tr;
        let tr, m' = apply_ops (base, m) [ `Set (k, "over"); `Remove k; `Set (k, "back") ] in
        check_model "overwrite, remove, set" m' tr;
        let fresh_k = splice_key 1000 in
        let tr, m' =
          apply_ops (base, m) [ `Set (fresh_k, "new"); `Set (fresh_k, "newer"); `Remove fresh_k ]
        in
        check_model "insert, overwrite, remove" m' tr);
    t "fold over a dirty trie" (fun () ->
        let base, m = splice_base () in
        let ops =
          List.init 50 (fun i ->
              if i mod 5 = 0 then `Remove (splice_key i) else `Set (splice_key i, "f"))
        in
        let tr, m = apply_ops (base, m) ops in
        Alcotest.(check (list (pair string string))) "bindings" (SMap.bindings m)
          (List.sort compare (Trie.fold tr ~init:[] ~f:(fun acc k v -> (k, v) :: acc))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"the dirty handle reads like the model" arb_codec_ops
         (fun ops ->
           let tr, model =
             List.fold_left
               (fun (tr, m) op ->
                 match op with
                 | `Set (k, v) -> (Trie.set tr k v, SMap.add k v m)
                 | `Remove k -> (Trie.remove tr k, SMap.remove k m)
                 | `Commit -> (Trie.commit tr, m))
               (fresh (), SMap.empty) ops
           in
           SMap.for_all
             (fun k _ ->
               List.for_all (fun k' -> Trie.get tr k' = SMap.find_opt k' model) (k :: near_misses k))
             model
           && List.sort compare (Trie.fold tr ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
              = SMap.bindings model));
    t "writes after a commit reach each malformed node and raise" (fun () ->
        (* a stored root branch whose nibble 1 holds a good leaf and nibble 2
           the malformed node *)
        let k1 = with_nibble 1 (splice_key 0) and k2 = with_nibble 2 (splice_key 1) in
        List.iter
          (fun (name, enc) ->
            let db = Trie.Db.create () in
            let leaf = Trie_ref.Leaf (Trie_ref.drop 1 (Trie_ref.to_nibbles k1), "v1") in
            let good = Trie.Db.put db (Trie_ref.encode_node (fun _ -> "") leaf) in
            let bad = Trie.Db.put db enc in
            let items =
              List.init 16 (fun i -> Rlp.Str (if i = 1 then good else if i = 2 then bad else ""))
            in
            let root = Rlp.encode (Rlp.List (items @ [ Rlp.Str "" ])) in
            let tr = Trie.of_root db (Trie.Db.put db root) in
            Alcotest.(check (option string)) (name ^ ": good leaf") (Some "v1") (Trie.get tr k1);
            let patched = Trie.set tr k1 "v2" in
            Alcotest.(check (option string)) (name ^ ": spliced leaf") (Some "v2") (Trie.get patched k1);
            List.iter
              (fun (what, f) -> Alcotest.(check bool) (name ^ ": " ^ what) true (raises f))
              [ ("set", fun () -> ignore (Trie.set tr k2 "x"));
                ("set through a patch", fun () -> ignore (Trie.set patched k2 "x"));
                ("get through a patch", fun () -> ignore (Trie.get patched k2));
                ("remove through a patch", fun () -> ignore (Trie.remove patched k2)) ])
          malformed) ]

let suite = unit_tests @ golden_tests @ property_tests @ codec_tests @ splice_tests
