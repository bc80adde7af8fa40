(* Statedb tests: journaled mutation, snapshot/revert nesting, commit
   determinism, reopening roots, touch tracking, prefetch warming and
   forks over a clean parent. *)

open State

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int
let check_u = Alcotest.testable U256.pp U256.equal
let a1 = Address.of_int 0xA1
let a2 = Address.of_int 0xA2

let fresh () =
  let bk = Statedb.Backend.create () in
  (bk, Statedb.create bk ~root:Statedb.empty_root)

let unit_tests =
  [ t "fresh accounts are empty" (fun () ->
        let _, st = fresh () in
        Alcotest.check check_u "balance" U256.zero (Statedb.get_balance st a1);
        Alcotest.(check int) "nonce" 0 (Statedb.get_nonce st a1);
        Alcotest.(check string) "code" "" (Statedb.get_code st a1);
        Alcotest.(check bool) "exists" false (Statedb.account_exists st a1));
    t "balance arithmetic" (fun () ->
        let _, st = fresh () in
        Statedb.set_balance st a1 (u 100);
        Statedb.add_balance st a1 (u 20);
        Statedb.sub_balance st a1 (u 50);
        Alcotest.check check_u "70" (u 70) (Statedb.get_balance st a1));
    t "sub_balance underflow raises" (fun () ->
        let _, st = fresh () in
        Statedb.set_balance st a1 (u 5);
        Alcotest.(check bool) "raises" true
          (try
             Statedb.sub_balance st a1 (u 6);
             false
           with Invalid_argument _ -> true));
    t "storage set/get and zero default" (fun () ->
        let _, st = fresh () in
        Statedb.set_storage st a1 (u 1) (u 42);
        Alcotest.check check_u "set" (u 42) (Statedb.get_storage st a1 (u 1));
        Alcotest.check check_u "other slot" U256.zero (Statedb.get_storage st a1 (u 2)));
    t "snapshot/revert single level" (fun () ->
        let _, st = fresh () in
        Statedb.set_balance st a1 (u 10);
        let snap = Statedb.snapshot st in
        Statedb.set_balance st a1 (u 99);
        Statedb.set_storage st a1 (u 0) (u 7);
        Statedb.incr_nonce st a1;
        Statedb.revert st snap;
        Alcotest.check check_u "balance back" (u 10) (Statedb.get_balance st a1);
        Alcotest.check check_u "slot back" U256.zero (Statedb.get_storage st a1 (u 0));
        Alcotest.(check int) "nonce back" 0 (Statedb.get_nonce st a1));
    t "nested snapshots revert independently" (fun () ->
        let _, st = fresh () in
        Statedb.set_storage st a1 (u 0) (u 1);
        let s1 = Statedb.snapshot st in
        Statedb.set_storage st a1 (u 0) (u 2);
        let s2 = Statedb.snapshot st in
        Statedb.set_storage st a1 (u 0) (u 3);
        Statedb.revert st s2;
        Alcotest.check check_u "inner" (u 2) (Statedb.get_storage st a1 (u 0));
        Statedb.revert st s1;
        Alcotest.check check_u "outer" (u 1) (Statedb.get_storage st a1 (u 0)));
    t "revert removes created accounts" (fun () ->
        let _, st = fresh () in
        let snap = Statedb.snapshot st in
        Statedb.set_balance st a1 (u 5);
        Alcotest.(check bool) "created" true (Statedb.account_exists st a1);
        Statedb.revert st snap;
        Alcotest.(check bool) "gone" false (Statedb.account_exists st a1));
    t "commit then reopen" (fun () ->
        let bk, st = fresh () in
        Statedb.set_balance st a1 (u 1000);
        Statedb.set_storage st a1 (u 5) (u 55);
        Statedb.set_code st a1 "\x60\x00";
        let root = Statedb.commit st in
        let st2 = Statedb.create bk ~root in
        Alcotest.check check_u "balance" (u 1000) (Statedb.get_balance st2 a1);
        Alcotest.check check_u "slot" (u 55) (Statedb.get_storage st2 a1 (u 5));
        Alcotest.(check string) "code" "\x60\x00" (Statedb.get_code st2 a1));
    t "commit is deterministic across op order" (fun () ->
        let r1 =
          let _, st = fresh () in
          Statedb.set_balance st a1 (u 1);
          Statedb.set_balance st a2 (u 2);
          Statedb.set_storage st a1 (u 0) (u 9);
          Statedb.commit st
        in
        let r2 =
          let _, st = fresh () in
          Statedb.set_storage st a1 (u 0) (u 9);
          Statedb.set_balance st a2 (u 2);
          Statedb.set_balance st a1 (u 1);
          Statedb.commit st
        in
        Alcotest.(check string) "roots equal" (Khash.Keccak.to_hex r1) (Khash.Keccak.to_hex r2));
    t "zeroing a slot removes it from the commitment" (fun () ->
        let bk, st = fresh () in
        Statedb.set_balance st a1 (u 1);
        let clean_root = Statedb.commit st in
        let st2 = Statedb.create bk ~root:clean_root in
        Statedb.set_storage st2 a1 (u 3) (u 7);
        let _with_slot = Statedb.commit st2 in
        Statedb.set_storage st2 a1 (u 3) U256.zero;
        let zeroed = Statedb.commit st2 in
        Alcotest.(check string) "root back to clean" (Khash.Keccak.to_hex clean_root)
          (Khash.Keccak.to_hex zeroed));
    t "empty accounts are not persisted" (fun () ->
        let _, st = fresh () in
        (* read-only touch creates a cache entry but must not enter the trie *)
        ignore (Statedb.get_balance st a1);
        let root = Statedb.commit st in
        Alcotest.(check string) "empty root" (Khash.Keccak.to_hex Statedb.empty_root)
          (Khash.Keccak.to_hex root));
    t "self destruct clears account at commit" (fun () ->
        let bk, st = fresh () in
        Statedb.set_balance st a1 (u 5);
        Statedb.set_code st a1 "\x00";
        let root1 = Statedb.commit st in
        let st2 = Statedb.create bk ~root:root1 in
        Statedb.self_destruct st2 a1;
        ignore (Statedb.commit st2);
        Alcotest.(check bool) "gone" false (Statedb.account_exists st2 a1));
    t "committed storage vs dirty value" (fun () ->
        let _, st = fresh () in
        Statedb.set_storage st a1 (u 0) (u 10);
        ignore (Statedb.commit st);
        Statedb.set_storage st a1 (u 0) (u 20);
        Alcotest.check check_u "dirty" (u 20) (Statedb.get_storage st a1 (u 0));
        Alcotest.check check_u "committed" (u 10) (Statedb.get_committed_storage st a1 (u 0)));
    t "touch tracking records reads" (fun () ->
        let bk, st = fresh () in
        Statedb.set_balance st a1 (u 1);
        Statedb.set_storage st a1 (u 7) (u 8);
        let root = Statedb.commit st in
        let st2 = Statedb.create bk ~root in
        Statedb.set_tracking st2 true;
        ignore (Statedb.get_balance st2 a1);
        ignore (Statedb.get_storage st2 a1 (u 7));
        let touches = Statedb.touches st2 in
        Alcotest.(check bool) "account touch" true
          (List.exists (function Statedb.T_account a -> Address.equal a a1 | _ -> false) touches);
        Alcotest.(check bool) "slot touch" true
          (List.exists
             (function Statedb.T_slot (a, k) -> Address.equal a a1 && U256.equal k (u 7) | _ -> false)
             touches));
    t "warm turns misses into hits" (fun () ->
        let bk, st = fresh () in
        Statedb.set_balance st a1 (u 1);
        Statedb.set_storage st a1 (u 7) (u 8);
        let root = Statedb.commit st in
        (* capture the read set *)
        let probe = Statedb.create bk ~root in
        Statedb.set_tracking probe true;
        ignore (Statedb.get_balance probe a1);
        ignore (Statedb.get_storage probe a1 (u 7));
        let touches = Statedb.touches probe in
        (* a warmed instance serves those reads from cache *)
        let warm = Statedb.create bk ~root in
        Statedb.warm warm touches;
        Statedb.Backend.reset_io bk;
        ignore (Statedb.get_balance warm a1);
        ignore (Statedb.get_storage warm a1 (u 7));
        Alcotest.(check int) "no trie reads after warming" 0 (Statedb.Backend.io_reads bk));
    t "code is content addressed" (fun () ->
        let _, st = fresh () in
        Statedb.set_code st a1 "same";
        Statedb.set_code st a2 "same";
        Alcotest.(check string) "hashes equal"
          (Khash.Keccak.to_hex (Statedb.get_code_hash st a1))
          (Khash.Keccak.to_hex (Statedb.get_code_hash st a2)))
  ]

let more_tests =
  [ t "revert after commit is rejected" (fun () ->
        let _, st = fresh () in
        Statedb.set_balance st a1 (u 1);
        let snap = Statedb.snapshot st in
        Statedb.set_balance st a1 (u 2);
        ignore (Statedb.commit st);
        Alcotest.(check bool) "stale snapshot raises" true
          (try
             Statedb.revert st snap;
             false
           with Invalid_argument _ -> true));
    t "large storage values round-trip through the trie" (fun () ->
        (* values near and past RLP's 55-byte boundary in account encoding *)
        let bk, st = fresh () in
        Statedb.set_balance st a1 (U256.sub U256.max_value U256.one);
        Statedb.set_storage st a1 U256.max_value (U256.sub U256.max_value (u 7));
        let root = Statedb.commit st in
        let st2 = Statedb.create bk ~root in
        Alcotest.check check_u "balance" (U256.sub U256.max_value U256.one)
          (Statedb.get_balance st2 a1);
        Alcotest.check check_u "slot" (U256.sub U256.max_value (u 7))
          (Statedb.get_storage st2 a1 U256.max_value));
    t "many accounts commit deterministically" (fun () ->
        let build order =
          let _, st = fresh () in
          List.iter (fun i -> Statedb.set_balance st (Address.of_int (1000 + i)) (u i)) order;
          Statedb.commit st
        in
        let fwd = build (List.init 64 (fun i -> i + 1)) in
        let rev = build (List.rev (List.init 64 (fun i -> i + 1))) in
        Alcotest.(check string) "same root" (Khash.Keccak.to_hex fwd) (Khash.Keccak.to_hex rev));
    t "golden: two committed rounds over 64 accounts" (fun () ->
        (* hex roots computed on the trie that stored and hashed every node
           at every write; a rewrite of the trie must reproduce them *)
        let bk, st = fresh () in
        let acct i = Address.of_int (0x1000 + i) in
        let heavy = [ acct 5; acct 40 ] in
        for i = 0 to 63 do
          Statedb.set_balance st (acct i) (u ((i * 1_000_003) + 1));
          Statedb.set_nonce st (acct i) (i mod 7)
        done;
        List.iter
          (fun a ->
            for s = 0 to 299 do
              Statedb.set_storage st a (u s) (u ((s * 7919) + 1))
            done)
          heavy;
        let r1 = Statedb.commit st in
        Alcotest.(check string) "first root"
          "2d4a27129c29648db010a0a537fde94aecacb18907283d227d35603289402969"
          (Khash.Keccak.to_hex r1);
        let st = Statedb.create bk ~root:r1 in
        for i = 0 to 63 do
          if i mod 4 = 0 then Statedb.add_balance st (acct i) (u 17)
        done;
        Statedb.set_balance st (acct 9) U256.zero;
        Statedb.set_nonce st (acct 9) 0;
        Statedb.self_destruct st (acct 12);
        List.iter
          (fun a ->
            for s = 0 to 299 do
              if s mod 3 = 0 then Statedb.set_storage st a (u s) U256.zero
              else if s mod 5 = 0 then Statedb.set_storage st a (u s) (u (s + 1))
            done;
            Statedb.set_storage st a (u 1000) (u 1))
          heavy;
        let r2 = Statedb.commit st in
        Alcotest.(check string) "second root"
          "97e00c4ffa5737668d392edadba202d186c709454de2e75fbace4b940e3c6a83"
          (Khash.Keccak.to_hex r2);
        let st = Statedb.create bk ~root:r2 in
        Alcotest.check check_u "zeroed slot" U256.zero (Statedb.get_storage st (acct 5) (u 3));
        Alcotest.check check_u "rewritten slot" (u 11) (Statedb.get_storage st (acct 40) (u 10));
        Alcotest.(check bool) "destructed" false (Statedb.account_exists st (acct 12));
        Alcotest.(check bool) "emptied" false (Statedb.account_exists st (acct 9)));
    t "incr_nonce journals correctly" (fun () ->
        let _, st = fresh () in
        let snap = Statedb.snapshot st in
        Statedb.incr_nonce st a1;
        Statedb.incr_nonce st a1;
        Alcotest.(check int) "two" 2 (Statedb.get_nonce st a1);
        Statedb.revert st snap;
        Alcotest.(check int) "zero again" 0 (Statedb.get_nonce st a1))
  ]

(* [Statedb.fork]: a private journaled state over a clean parent, served
   from the parent's caches where it has them, the trie otherwise. *)
let a3 = Address.of_int 0xA3

(* a1 holds a balance and slots 5 and 6, a2 a balance; the returned parent
   has a1, a2 and a1's slot 5 cached, a1's slot 6 not *)
let forked_world () =
  let bk, st = fresh () in
  Statedb.set_balance st a1 (u 100);
  Statedb.set_storage st a1 (u 5) (u 55);
  Statedb.set_storage st a1 (u 6) (u 66);
  Statedb.set_balance st a2 (u 7);
  let root = Statedb.commit st in
  let parent = Statedb.create bk ~root in
  ignore (Statedb.get_balance parent a1);
  ignore (Statedb.get_balance parent a2);
  ignore (Statedb.get_storage parent a1 (u 5));
  (bk, root, parent)

let parent_hits = Obs.counter "statedb.fork.parent_hits"

(* How far [f] moves counter [c], with Obs enabled for its duration. *)
let counting c f =
  let was = !Obs.enabled in
  Obs.set_enabled true;
  let before = Obs.count c in
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f;
  Obs.count c - before

(* the reads every fork test makes, returning what they saw *)
let read_all st =
  [ Statedb.get_balance st a1; Statedb.get_storage st a1 (u 5);
    Statedb.get_storage st a1 (u 6); Statedb.get_balance st a2;
    U256.of_int (Statedb.get_nonce st a3); Statedb.get_committed_storage st a1 (u 5) ]

let fork_tests =
  [ t "fork touches every read, parent-served ones included" (fun () ->
        let bk, root, parent = forked_world () in
        let cold = Statedb.create bk ~root in
        Statedb.set_tracking cold true;
        let want = read_all cold in
        let f = Statedb.fork parent in
        Statedb.set_tracking f true;
        let got = ref [] in
        let hits = counting parent_hits (fun () -> got := read_all f) in
        Alcotest.(check (list check_u)) "same values as a cold state" want !got;
        Alcotest.(check bool) "same touch log as a cold state" true
          (Statedb.touches f = Statedb.touches cold);
        Alcotest.(check int) "touches" 5 (List.length (Statedb.touches f));
        (* a1, a2 and a1's slot 5 come from the parent; a3 and slot 6 do not *)
        Alcotest.(check int) "parent hits" 3 hits);
    t "fork writes and reverts never reach the parent" (fun () ->
        let bk, root, parent = forked_world () in
        let before = read_all parent in
        let f = Statedb.fork parent in
        Statedb.set_balance f a1 (u 1);
        Statedb.set_storage f a1 (u 5) U256.zero;
        let snap = Statedb.snapshot f in
        Statedb.set_storage f a1 (u 6) (u 9);
        Statedb.incr_nonce f a3;
        Statedb.self_destruct f a2;
        Statedb.revert f snap;
        Statedb.set_storage f a1 (u 7) (u 77);
        let froot = Statedb.commit f in
        Alcotest.(check bool) "fork committed a new root" false (String.equal froot root);
        Alcotest.(check string) "parent root unchanged" (Khash.Keccak.to_hex root)
          (Khash.Keccak.to_hex (Statedb.root parent));
        Alcotest.(check (list check_u)) "parent values unchanged" before (read_all parent);
        Alcotest.(check (list check_u)) "a second fork sees the parent"
          (read_all (Statedb.create bk ~root))
          (read_all (Statedb.fork parent));
        Alcotest.check check_u "the fork's commit reopens" (u 77)
          (Statedb.get_storage (Statedb.create bk ~root:froot) a1 (u 7)));
    t "a parent that wrote and reverted serves committed values" (fun () ->
        let bk, root, parent = forked_world () in
        let snap = Statedb.snapshot parent in
        Statedb.set_balance parent a1 (u 1);
        Statedb.set_storage parent a1 (u 5) (u 500);
        Statedb.set_storage parent a1 (u 6) (u 600);
        Statedb.set_balance parent a3 (u 3);
        Statedb.revert parent snap;
        let f = Statedb.fork parent in
        Alcotest.(check (list check_u)) "committed values"
          (read_all (Statedb.create bk ~root))
          (read_all f);
        Alcotest.(check bool) "reverted creation is absent" false
          (Statedb.account_exists f a3));
    t "fork of a state with an open journal raises" (fun () ->
        let _, _, parent = forked_world () in
        Statedb.set_balance parent a1 (u 1);
        Alcotest.(check bool) "raises" true
          (try
             ignore (Statedb.fork parent : Statedb.t);
             false
           with Invalid_argument _ -> true))
  ]

(* Slot trie keys: a slot's key is hashed when a read walks the storage
   trie and reused by the commit that writes it; a slot written without
   such a read is hashed at commit.  Every commit drops the kept keys. *)
let key_hashes = Obs.counter "statedb.slot_key_hashes"

let key_tests =
  [ t "each slot's trie key is hashed once per commit round" (fun () ->
        let bk, st = fresh () in
        Statedb.set_balance st a1 (u 1);
        Statedb.set_storage st a1 (u 1) (u 10);
        Statedb.set_storage st a1 (u 2) (u 20);
        let root = Statedb.commit st in
        let st = Statedb.create bk ~root in
        let round f = counting key_hashes (fun () -> f (); ignore (Statedb.commit st : string)) in
        Alcotest.(check int) "read then written" 1
          (round (fun () ->
               ignore (Statedb.get_storage st a1 (u 1));
               Statedb.set_storage st a1 (u 1) (u 11)));
        Alcotest.(check int) "committed read then written" 1
          (round (fun () ->
               ignore (Statedb.get_committed_storage st a1 (u 2));
               Statedb.set_storage st a1 (u 2) (u 21)));
        Alcotest.(check int) "blind write" 1
          (round (fun () -> Statedb.set_storage st a1 (u 3) (u 30)));
        Alcotest.(check int) "re-read after a commit, then written" 1
          (round (fun () ->
               ignore (Statedb.get_storage st a1 (u 1));
               Statedb.set_storage st a1 (u 1) (u 12)));
        Alcotest.(check int) "read twice, not written" 1
          (round (fun () ->
               ignore (Statedb.get_storage st a1 (u 4));
               ignore (Statedb.get_committed_storage st a1 (u 4))));
        Alcotest.(check int) "clean round" 0 (round ignore));
    t "journaled writes box no gauge value while Obs is off" (fun () ->
        let _, st = fresh () in
        Statedb.set_nonce st a1 1;
        let n = 1000 in
        let before = Gc.minor_words () in
        for i = 1 to n do
          Statedb.set_nonce st a1 i
        done;
        let words = (Gc.minor_words () -. before) /. float_of_int n in
        (* the entry, its list cell and the cache's [Some] binding *)
        Alcotest.(check bool) (Printf.sprintf "%.2f words per journaled write" words) true
          (words <= 8.0);
        Test_obs.with_obs (fun () ->
            let _, st = fresh () in
            for i = 1 to 3 do
              Statedb.set_nonce st a1 i
            done;
            Alcotest.(check (float 0.001)) "journal depth gauge while Obs is on" 4.0
              (Test_obs.num
                 (Test_obs.member "statedb.journal.max_depth"
                    (Test_obs.member "gauges" (Test_obs.registry_json ()))))))
  ]

(* Scripts over 3 accounts x 4 slots, two of which share their low limb,
   committed 1-3 times on one handle and once more through a fork whose
   changes the master applies: every root must equal the root of a fresh
   state given the same final values by blind writes. *)
let key_accts = [| Address.of_int 0xC1; Address.of_int 0xC2; Address.of_int 0xC3 |]
let key_slots = [| u 1; u 2; U256.of_limbs 1L 1L 0L 0L; U256.of_limbs 2L 0L 0L 1L |]

type slot_op =
  | Read of int * int
  | Read_committed of int * int
  | Write of int * int * int (* read, then write a nonzero value *)
  | Zero of int * int (* read, then write zero *)
  | Blind of int * int * int (* write, no read; the value may be zero *)

let arb_key_script =
  let open QCheck.Gen in
  let a = int_bound 2 and s = int_bound 3 and v = int_range 1 5 in
  let op =
    frequency
      [ (2, map2 (fun a s -> Read (a, s)) a s);
        (1, map2 (fun a s -> Read_committed (a, s)) a s);
        (3, map3 (fun a s v -> Write (a, s, v)) a s v);
        (1, map2 (fun a s -> Zero (a, s)) a s);
        (2, map3 (fun a s v -> Blind (a, s, v - 1)) a s v) ]
  in
  let ops = list_size (int_bound 10) op in
  let genesis = list_repeat 12 (int_bound 3) in
  QCheck.make
    ~print:(fun (g, rounds, fork) ->
      let pr = function
        | Read (a, s) -> Printf.sprintf "r%d.%d" a s
        | Read_committed (a, s) -> Printf.sprintf "c%d.%d" a s
        | Write (a, s, v) -> Printf.sprintf "w%d.%d=%d" a s v
        | Zero (a, s) -> Printf.sprintf "z%d.%d" a s
        | Blind (a, s, v) -> Printf.sprintf "b%d.%d=%d" a s v
      in
      let prs l = String.concat " " (List.map pr l) in
      Printf.sprintf "genesis %s | %s | fork %s"
        (String.concat "," (List.map string_of_int g))
        (String.concat " | " (List.map prs rounds))
        (prs fork))
    (triple genesis (list_size (int_range 1 3) ops) ops)

(* Blind writes of [values] (slot [s] of account [a] at [4a + s]). *)
let write_all st values =
  Array.iteri
    (fun ai addr ->
      Statedb.set_balance st addr (u 1);
      Array.iteri (fun si slot -> Statedb.set_storage st addr slot (u values.((ai * 4) + si))) key_slots)
    key_accts

let blind_root values =
  let _, st = fresh () in
  write_all st values;
  Statedb.commit st

let run_slot_op st values op =
  let write ~read a s v =
    let addr = key_accts.(a) and k = key_slots.(s) in
    if read then ignore (Statedb.get_storage st addr k);
    Statedb.set_storage st addr k (u v);
    values.((a * 4) + s) <- v
  in
  match op with
  | Read (a, s) -> ignore (Statedb.get_storage st key_accts.(a) key_slots.(s))
  | Read_committed (a, s) -> ignore (Statedb.get_committed_storage st key_accts.(a) key_slots.(s))
  | Write (a, s, v) -> write ~read:true a s v
  | Zero (a, s) -> write ~read:true a s 0
  | Blind (a, s, v) -> write ~read:false a s v

let key_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"reused slot keys commit the blind-write root"
       arb_key_script (fun (genesis, rounds, fork) ->
         let values = Array.of_list genesis in
         let bk, st = fresh () in
         write_all st values;
         let st = Statedb.create bk ~root:(Statedb.commit st) in
         let agrees st = String.equal (Statedb.commit st) (blind_root values) in
         List.for_all
           (fun ops ->
             List.iter (run_slot_op st values) ops;
             agrees st)
           rounds
         && begin
              (* the master prefetches the fork's reads, as the parallel
                 apply's static partition does *)
              List.iter
                (function Read _ | Read_committed _ as op -> run_slot_op st values op | _ -> ())
                fork;
              let f = Statedb.fork st in
              List.iter (run_slot_op f values) fork;
              Statedb.apply_changes st (Statedb.changes_since f 0);
              agrees st
            end))

(* model-based property: random journaled ops + snapshots/reverts agree with
   a functional model *)
type model = { bal : U256.t Address.Map.t; slot : U256.t Address.Map.t }

let arb_script =
  let open QCheck.Gen in
  let addr = map (fun i -> Address.of_int (0xB0 + (i mod 4))) small_nat in
  let op =
    frequency
      [ (3, map2 (fun a v -> `Bal (a, u (v mod 1000))) addr small_nat);
        (3, map2 (fun a v -> `Slot (a, u (v mod 50))) addr small_nat);
        (1, return `Snap);
        (1, return `Revert) ]
  in
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<script of %d ops>" (List.length l))
    (list_size (int_bound 40) op)

let property_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"journal agrees with functional model" arb_script
         (fun script ->
           let _, st = fresh () in
           let model = ref { bal = Address.Map.empty; slot = Address.Map.empty } in
           let stack = ref [] in
           List.iter
             (fun op ->
               match op with
               | `Bal (a, v) ->
                 Statedb.set_balance st a v;
                 model := { !model with bal = Address.Map.add a v !model.bal }
               | `Slot (a, v) ->
                 Statedb.set_storage st a U256.zero v;
                 model := { !model with slot = Address.Map.add a v !model.slot }
               | `Snap -> stack := (Statedb.snapshot st, !model) :: !stack
               | `Revert -> (
                 match !stack with
                 | (snap, m) :: rest ->
                   Statedb.revert st snap;
                   model := m;
                   stack := rest
                 | [] -> ()))
             script;
           Address.Map.for_all (fun a v -> U256.equal (Statedb.get_balance st a) v) !model.bal
           && Address.Map.for_all
                (fun a v -> U256.equal (Statedb.get_storage st a U256.zero) v)
                !model.slot));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"an address is the low 20 bytes of its word"
         QCheck.(quad int64 int64 int64 int64)
         (fun (a, b, c, d) ->
           let v = U256.of_limbs a b c d in
           let addr = Address.of_u256 v in
           String.equal (Address.to_bytes addr) (String.sub (U256.to_bytes_be v) 12 20)
           && U256.equal (Address.to_u256 addr)
                (U256.logand v (U256.shift_right U256.max_value 96))))
  ]

(* Allocation ratchets, Obs off: the minor words of one read.  An account
   record holds no storage table until its first slot access, and a fork's
   record of an account its parent has cached copies the parent's fields.
   Records that build their tables at load take 295 and 138 words for the
   first two reads.  A load plus the first slot read is bounded by what
   it cost with tables built at load, 371 words. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let accounts = Obs.counter "statedb.accounts"
let storage_tables = Obs.counter "statedb.storage_tables"

let load st a () =
  ignore (Statedb.get_balance st a);
  ignore (Statedb.get_nonce st a)

let ratchet name ~bound w =
  Alcotest.(check bool) (Printf.sprintf "%s: %.0f words (bound %.0f)" name w bound) true (w <= bound)

(* A window's change records, printed for comparison. *)
let show (c : Statedb.change) =
  let opt f = function Some v -> f v | None -> "-" in
  Printf.sprintf "%s bal=%s nonce=%s code=%s slots=[%s] created=%b destructed=%b"
    (Address.to_hex c.ch_addr) (opt U256.to_hex c.ch_balance) (opt string_of_int c.ch_nonce)
    (opt Khash.Keccak.to_hex c.ch_code_hash)
    (String.concat ";"
       (List.map (fun (k, v) -> U256.to_hex k ^ "=" ^ U256.to_hex v) c.ch_slots))
    c.ch_created c.ch_destructed

let change ?balance ?nonce ?(slots = []) ?(created = false) addr =
  show
    {
      Statedb.ch_addr = addr;
      ch_balance = Option.map u balance;
      ch_nonce = nonce;
      ch_code_hash = None;
      ch_slots = List.map (fun (k, v) -> (u k, u v)) slots;
      ch_created = created;
      ch_destructed = false;
    }

let lazy_tests =
  [ t "a cold read of a codeless account builds no storage table" (fun () ->
        let bk, root, _ = forked_world () in
        let st = Statedb.create bk ~root in
        ratchet "balance and nonce" ~bound:200.0 (words (load st a2));
        Alcotest.(check (pair int int)) "one record, no table" (1, 0)
          (let st = Statedb.create bk ~root in
           let tables = ref 0 in
           let built = counting accounts (fun () -> tables := counting storage_tables (load st a2)) in
           (built, !tables)));
    t "a fork's first read of a parent-cached account copies its fields" (fun () ->
        let _, _, parent = forked_world () in
        let f = Statedb.fork parent in
        ratchet "balance and nonce" ~bound:40.0 (words (load f a2)));
    t "an account's first slot read pays for its storage tables" (fun () ->
        let bk, root, _ = forked_world () in
        let st = Statedb.create bk ~root in
        let loaded = words (load st a1) in
        let slot = words (fun () -> ignore (Statedb.get_storage st a1 (u 5))) in
        ratchet "load, then first slot read" ~bound:371.0 (loaded +. slot);
        Alcotest.(check int) "the slot read built the tables" 1
          (let st = Statedb.create bk ~root in
           load st a1 ();
           counting storage_tables (fun () -> ignore (Statedb.get_storage st a1 (u 5)))));
    t "changes_since reports a window's net effects exactly" (fun () ->
        let bk, root, _ = forked_world () in
        let st = Statedb.create bk ~root in
        let coinbase = Address.of_int 0xC0 in
        Statedb.set_storage st a2 (u 1) (u 11);
        let mark = Statedb.snapshot st in
        (* one slot written several times, one zeroed *)
        List.iter (fun v -> Statedb.set_storage st a1 (u 5) (u v)) [ 1; 2; 3 ];
        Statedb.set_storage st a1 (u 9) U256.zero;
        Statedb.incr_nonce st a1;
        (* inner writes a nested snapshot reverts *)
        let inner = Statedb.snapshot st in
        Statedb.set_storage st a1 (u 6) (u 600);
        Statedb.set_balance st a2 U256.zero;
        Statedb.revert st inner;
        (* an account created, then reverted *)
        let created = Statedb.snapshot st in
        Statedb.set_balance st a3 (u 3);
        Statedb.set_storage st a3 (u 1) (u 1);
        Statedb.revert st created;
        (* the coinbase credit *)
        Statedb.add_balance st coinbase (u 21);
        Alcotest.(check (list string)) "records"
          [ change a1 ~nonce:1 ~slots:[ (5, 3); (9, 0) ];
            change coinbase ~balance:21 ~created:true ]
          (List.map show (Statedb.changes_since st mark)));
    t "changes_since dedupes 10,000 written slots in n log n" (fun () ->
        let _, st = fresh () in
        let n = 10_000 in
        (* every slot written twice, in a scattered order; the CPU bound is
           about ten times what sort-and-unique takes, and a quadratic
           list-scan dedupe takes about forty times *)
        for round = 0 to 1 do
          for i = 0 to n - 1 do
            let k = (i * 7919) mod n in
            Statedb.set_storage st a1 (u k) (u (k + round))
          done
        done;
        let changes = ref [] in
        let cpu = ref infinity and w = ref 0.0 in
        for _ = 1 to 3 do
          let t0 = Sys.time () in
          w := words (fun () -> changes := Statedb.changes_since st 0);
          cpu := Float.min !cpu (Sys.time () -. t0)
        done;
        (match !changes with
        | [ c ] ->
          Alcotest.(check int) "slots" n (List.length c.ch_slots);
          Alcotest.(check bool) "sorted, final values" true
            (List.for_all2
               (fun i (k, v) -> U256.equal k (u i) && U256.equal v (u (i + 1)))
               (List.init n Fun.id) c.ch_slots)
        | l -> Alcotest.failf "%d records, want 1" (List.length l));
        Alcotest.(check bool) (Printf.sprintf "%.1f ms of CPU" (!cpu *. 1e3)) true (!cpu < 0.1);
        ratchet "words per written slot" ~bound:15.0 (!w /. float_of_int (2 * n)));
    t "crediting existing codeless accounts decodes no trie node at commit" (fun () ->
        (* 256 committed codeless accounts, then a state on their root that
           credits every fourth: each write goes through stored branches and
           ends at a stored leaf with the same path.  The commit takes 225
           words per credited account; decoding the stored nodes on the way
           took 395. *)
        let bk, st = fresh () in
        let addr i = Address.of_int (0x1000 + i) in
        for i = 0 to 255 do
          Statedb.set_balance st (addr i) (u (i + 1))
        done;
        let root = Statedb.commit st in
        let credited () =
          let st = Statedb.create bk ~root in
          for i = 0 to 63 do
            Statedb.add_balance st (addr (4 * i)) (u 1000)
          done;
          st
        in
        let st = credited () in
        let committed, decoded, spliced = Test_trie.counted (fun () -> Statedb.commit st) in
        Alcotest.(check int) "stored nodes decoded" 0 decoded;
        Alcotest.(check bool) "splices" true (spliced >= 64);
        let _, direct = fresh () in
        for i = 0 to 255 do
          Statedb.set_balance direct (addr i) (u (i + 1 + if i mod 4 = 0 then 1000 else 0))
        done;
        Alcotest.(check string) "root" (Khash.Keccak.to_hex (Statedb.commit direct))
          (Khash.Keccak.to_hex committed);
        let st = credited () in
        ratchet "commit words per credited account" ~bound:250.0
          (words (fun () -> ignore (Statedb.commit st)) /. 64.0)) ]

(* ---- account records and slot values read in place ----
   A malformed record raises what decoding it with [Rlp_ref] and matching
   its shape raised: [Rlp.Decode_error] (message aside) or the same
   [Invalid_argument]. *)

type outcome = Read | Decode_error | Invalid of string

let outcome f =
  match f () with
  | _ -> Read
  | exception Rlp.Decode_error _ -> Decode_error
  | exception Invalid_argument m -> Invalid m

let show_outcome = function Read -> "read" | Decode_error -> "decode error" | Invalid m -> m

(* The reads as they were: decode into an item tree, then match it. *)
let reference_account enc =
  match Rlp_ref.decode enc with
  | Rlp.List [ nonce; Rlp.Str bal; Rlp.Str _; Rlp.Str _ ] ->
    ignore (U256.of_bytes_be bal);
    ignore (Rlp_ref.decode_int nonce)
  | _ -> invalid_arg "Statedb: bad account encoding"

let reference_slot enc =
  match Rlp_ref.decode enc with
  | Rlp.Str s -> ignore (U256.of_bytes_be s)
  | Rlp.List _ -> invalid_arg "Statedb: bad slot encoding"

(* A trie holding one binding, committed; returns its root. *)
let one_binding bk key value =
  let db = Statedb.Backend.trie_db bk in
  Trie.root_hash (Trie.set (Trie.of_root db Statedb.empty_root) key value)

let record items = Rlp.encode (Rlp.List items)
let hash32 c = Rlp.Str (String.make 32 c)

(* nonce 3, balance 9 *)
let good_account = record [ Rlp.encode_int 3; Rlp.Str "\x09"; hash32 'r'; hash32 'c' ]

let malformed_accounts =
  [ ("a good record", good_account);
    ("a string", Rlp.encode (Rlp.Str "account"));
    ("three items", record [ Rlp.encode_int 3; Rlp.Str "\x09"; hash32 'r' ]);
    ("five items", record [ Rlp.encode_int 3; Rlp.Str "\x09"; hash32 'r'; hash32 'c'; Rlp.Str "" ]);
    ("a list item", record [ Rlp.List []; Rlp.Str "\x09"; hash32 'r'; hash32 'c' ]);
    ("a malformed list item", "\xc5\xc2\x81\x05\x09\x80");
    ("a leading-zero nonce", record [ Rlp.Str "\x00\x03"; Rlp.Str "\x09"; hash32 'r'; hash32 'c' ]);
    ("a nine-byte nonce",
     record [ Rlp.Str (String.make 9 '\x01'); Rlp.Str "\x09"; hash32 'r'; hash32 'c' ]);
    ("a 33-byte balance",
     record [ Rlp.encode_int 3; Rlp.Str (String.make 33 '\x01'); hash32 'r'; hash32 'c' ]);
    ("a non-minimal single byte", "\xc5\x03\x81\x05\x80\x80");
    ("trailing bytes", good_account ^ "\x00");
    ("cut short", String.sub good_account 0 60);
    ("a list header past its end", "\xc8\x03\x09") ]

let malformed_slots =
  [ ("a good value", "\x82\x01\x02"); ("one byte", "\x05"); ("a list", "\xc0");
    ("a list of values", record [ Rlp.Str "\x05" ]);
    ("33 bytes", Rlp.encode (Rlp.Str (String.make 33 '\x01')));
    ("a non-minimal single byte", "\x81\x05"); ("trailing bytes", "\x05\x05");
    ("cut short", "\x83\x01\x02"); ("a long header for a short value", "\xb8\x01\x05") ]

let record_tests =
  [ t "malformed account records raise as decoding them did" (fun () ->
        List.iter
          (fun (name, enc) ->
            let bk = Statedb.Backend.create () in
            let root = one_binding bk (Khash.Keccak.digest (Address.to_bytes a1)) enc in
            let st = Statedb.create bk ~root in
            Alcotest.(check string) name
              (show_outcome (outcome (fun () -> reference_account enc)))
              (show_outcome (outcome (fun () -> Statedb.get_balance st a1))))
          malformed_accounts);
    t "malformed slot values raise as decoding them did" (fun () ->
        List.iter
          (fun (name, enc) ->
            let bk = Statedb.Backend.create () in
            let sroot = one_binding bk (Khash.Keccak.digest (U256.to_bytes_be (u 5))) enc in
            let acct =
              record [ Rlp.encode_int 0; Rlp.Str "\x01"; Rlp.Str sroot; Rlp.Str (Khash.Keccak.digest "") ]
            in
            let root = one_binding bk (Khash.Keccak.digest (Address.to_bytes a1)) acct in
            let st = Statedb.create bk ~root in
            Alcotest.(check string) name
              (show_outcome (outcome (fun () -> reference_slot enc)))
              (show_outcome (outcome (fun () -> Statedb.get_storage st a1 (u 5)))))
          malformed_slots) ]

let suite =
  unit_tests @ more_tests @ fork_tests @ key_tests @ (key_property :: property_tests) @ lazy_tests
  @ record_tests
