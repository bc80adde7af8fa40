(* lib/lru and the caches behind it: the bounded LRU map against a list
   model, then churn through the decode and analysis-facts caches — a hot
   code looked up between 4,100 distinct cold ones must stay cached, so it
   is decoded (analysed) exactly once while the cache holds its bound. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let t name f = Alcotest.test_case name `Quick f
let key_list = Alcotest.(list string)

let filled ?on_evict cap keys =
  let l = Lru.create ?on_evict ~name:"test.lru" cap in
  List.iter (fun k -> Lru.add l k (String.uppercase_ascii k)) keys;
  l

let present l keys = List.filter (Lru.mem l) keys

let recency () =
  let l = filled 3 [ "a"; "b"; "c" ] in
  Alcotest.(check (option string)) "hit returns the value" (Some "A") (Lru.find l "a");
  Lru.add l "d" "D";
  Alcotest.check key_list "the found entry survives overflow" [ "a"; "c"; "d" ]
    (present l [ "a"; "b"; "c"; "d" ]);
  check "one eviction" 1 (Lru.evictions l);
  check "length stays at capacity" 3 (Lru.length l)

let mem_does_not_refresh () =
  let l = filled 2 [ "a"; "b" ] in
  checkb "mem sees the entry" true (Lru.mem l "a");
  Lru.add l "c" "C";
  Alcotest.check key_list "mem left a least recent" [ "b"; "c" ] (present l [ "a"; "b"; "c" ]);
  check "mem counts nothing" 0 (Lru.hits l + Lru.misses l)

let readd_is_not_eviction () =
  let l = filled 2 [ "a"; "b" ] in
  Lru.add l "a" "A2";
  check "rebinding evicts nothing" 0 (Lru.evictions l);
  check "one entry per key" 2 (Lru.length l);
  Lru.add l "c" "C";
  Alcotest.check key_list "rebinding refreshes recency" [ "a"; "c" ] (present l [ "a"; "b"; "c" ]);
  Alcotest.(check (option string)) "rebinding replaces the value" (Some "A2") (Lru.find l "a")

let eviction_count () =
  let evicted = ref [] in
  let l = filled ~on_evict:(fun k _ -> evicted := k :: !evicted) 2 [ "a"; "b"; "c"; "d"; "e" ] in
  check "three evictions past capacity 2" 3 (Lru.evictions l);
  Alcotest.check key_list "the hook saw them oldest first" [ "a"; "b"; "c" ] (List.rev !evicted);
  ignore (Lru.remove l "e");
  check "remove is not an eviction" 3 (Lru.evictions l);
  ignore (Lru.find l "d");
  ignore (Lru.find l "e");
  check "hits" 1 (Lru.hits l);
  check "misses" 1 (Lru.misses l)

let pop_order () =
  let popped = ref [] in
  let l = filled ~on_evict:(fun k _ -> popped := k :: !popped) 4 [ "a"; "b"; "c" ] in
  ignore (Lru.find l "a");
  while Lru.pop l do () done;
  Alcotest.check key_list "least recent first" [ "b"; "c"; "a" ] (List.rev !popped);
  check "each pop is an eviction" 3 (Lru.evictions l);
  check "empty after draining" 0 (Lru.length l)

let clear () =
  let l = filled 3 [ "a"; "b"; "c" ] in
  Lru.clear l;
  check "clear empties" 0 (Lru.length l);
  check "clear is not an eviction" 0 (Lru.evictions l);
  checkb "cleared key misses" true (Lru.find l "a" = None);
  List.iter (fun k -> Lru.add l k k) [ "x"; "y"; "z"; "w" ];
  Alcotest.check key_list "refills and evicts as new" [ "y"; "z"; "w" ]
    (present l [ "x"; "y"; "z"; "w" ])

(* Random operations against a most-recent-first association list; the
   eviction hook must see exactly the model's least recent entries. *)
let model_agreement () =
  let rng = Random.State.make [| 21 |] in
  for cap = 1 to 6 do
    let seen = ref [] and want = ref [] in
    let l = Lru.create ~on_evict:(fun k v -> seen := (k, v) :: !seen) ~name:"test.lru" cap in
    let model = ref [] in
    let without k = List.filter (fun (k', _) -> k' <> k) !model in
    let evict_last () =
      match List.rev !model with
      | [] -> ()
      | last :: rest ->
        want := last :: !want;
        model := List.rev rest
    in
    for step = 1 to 3000 do
      let k = Random.State.int rng 9 in
      let what = Printf.sprintf "cap %d step %d" cap step in
      (match Random.State.int rng 5 with
      | 0 | 1 ->
        let v = Random.State.int rng 1000 in
        if (not (List.mem_assoc k !model)) && List.length !model = cap then evict_last ();
        model := (k, v) :: without k;
        Lru.add l k v
      | 2 ->
        let found = List.assoc_opt k !model in
        Option.iter (fun v -> model := (k, v) :: without k) found;
        Alcotest.(check (option int)) (what ^ " find") found (Lru.find l k)
      | 3 ->
        Alcotest.(check (option int)) (what ^ " remove") (List.assoc_opt k !model) (Lru.remove l k);
        model := without k
      | _ ->
        let nonempty = !model <> [] in
        evict_last ();
        checkb (what ^ " pop") nonempty (Lru.pop l));
      check (what ^ " length") (List.length !model) (Lru.length l);
      Alcotest.(check (list (pair int int))) (what ^ " evicted") !want !seen;
      check (what ^ " evictions") (List.length !want) (Lru.evictions l)
    done
  done

(* ---- churn through the process-wide caches ---- *)

let churn_codes = 4100

(* PUSH2 i; STOP: [churn_codes] distinct tiny programs *)
let tiny i = Printf.sprintf "\x61%c%c\x00" (Char.chr (i lsr 8)) (Char.chr (i land 0xff))

(* Look [hot] up once, then again after each distinct cold code; return
   how many misses the cache's Obs counter saw, and whether every later
   lookup returned the first artifact itself. *)
let churn ~misses_counter ~clear lookup =
  clear ();
  let hot = "\x60\x2a\x60\x00\x55\x00" in
  let saved = !Obs.enabled in
  Obs.set_enabled true;
  let misses = Obs.counter misses_counter in
  let m0 = Obs.count misses in
  let first = lookup hot in
  let same = ref true in
  for i = 1 to churn_codes do
    ignore (lookup (tiny i));
    if lookup hot != first then same := false
  done;
  Obs.set_enabled saved;
  (Obs.count misses - m0, !same)

let spec = Spec.resolve Spec.Berlin

let decode_churn () =
  let misses, same =
    churn ~misses_counter:"interp.decode.misses" ~clear:Evm.Decode.clear_cache (fun code ->
        Evm.Decode.get ~hash:(Khash.Keccak.digest code) ~spec code)
  in
  checkb "the hot program is decoded once" true same;
  check "one miss per distinct code" (churn_codes + 1) misses;
  check "the cache holds its bound" 4096 (Evm.Decode.cache_size ())

let bca_churn () =
  let misses, same =
    churn ~misses_counter:"bca.cache.misses" ~clear:Bca.clear_cache (fun code ->
        Bca.facts_for ~spec ~hash:(Khash.Keccak.digest code) code)
  in
  checkb "the hot code is analysed once" true same;
  check "one miss per distinct code" (churn_codes + 1) misses;
  check "the cache holds its bound" 4096 (Bca.cache_size ())

let suite =
  [ t "found entry survives overflow" recency;
    t "mem does not refresh recency" mem_does_not_refresh;
    t "re-adding a present key is not an eviction" readd_is_not_eviction;
    t "eviction count and hook" eviction_count;
    t "pop order is least recent first" pop_order;
    t "clear" clear;
    t "random operations agree with a list model" model_agreement;
    t "decode churn keeps the hot program" decode_churn;
    t "bca churn keeps the hot facts" bca_churn ]
