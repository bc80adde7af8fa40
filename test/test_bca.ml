(* lib/bca in the alcotest suite: the qcheck soundness property (static
   footprint ⊇ runtime touch log, across every hardfork) on generated
   scenarios, the partitioner's footprint union against a brute-force
   list reference, the commit loop's conflict check against the
   location-key rule it replaced, plus one negative case per analysis
   domain — each seeded [Bca.narrowing] must trip its matching sentinel.
   The heavyweight corpus + 200-per-fork sweep lives in lanes_ci
   (`dune build @bca`); this suite keeps a lighter property inside
   `dune test`. *)

let checkb = Alcotest.(check bool)

let t name f = Alcotest.test_case name `Quick f

(* ---- positive property: generated scenarios are sound on all forks ---- *)

let arb_iter = QCheck.int_range 0 500

let footprint_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"footprint covers touch log on every fork" arb_iter
       (fun i ->
         List.for_all
           (fun fork ->
             let s =
               { (Fuzz.Generate.seeded ~seed:97 i) with Fuzz.Scenario.fork = Some fork }
             in
             let label = Printf.sprintf "qcheck(iter=%d)" i in
             match Fuzz.Runner.run ~lanes:[ Fuzz.Runner.Footprint ] ~label s with
             | [] -> true
             | f :: _ -> QCheck.Test.fail_reportf "%a" Fuzz.Runner.pp_finding f)
           Spec.all_forks))

(* ---- the partitioner's footprint union against a brute-force reference ----

   Over random prediction sequences drawn from a small address and slot
   pool (so overlaps are common), wild and slot-wild entries included, the
   hash-set union's verdict for each prediction must equal testing it
   pairwise, with plain lists, against every earlier non-wild one. *)

let addr_pool = Array.init 4 (fun i -> State.Address.of_int (0xB00 + i))

let gen_prediction =
  let open QCheck.Gen in
  let addr = map (Array.get addr_pool) (int_bound 3) in
  let slot = pair addr (map U256.of_int (int_bound 2)) in
  let few g = list_size (int_bound 2) g in
  frequency
    [ (1, return { Bca.p_wild = true; p_r_accounts = []; p_w_accounts = []; p_codes = [];
                   p_r_slots = []; p_w_slots = []; p_r_slot_wild = []; p_w_slot_wild = [] });
      ( 8,
        few addr >>= fun p_r_accounts ->
        few addr >>= fun p_w_accounts ->
        few slot >>= fun p_r_slots ->
        few slot >>= fun p_w_slots ->
        few addr >>= fun p_r_slot_wild ->
        few addr >>= fun p_w_slot_wild ->
        return
          { Bca.p_wild = false; p_r_accounts; p_w_accounts; p_codes = []; p_r_slots;
            p_w_slots; p_r_slot_wild; p_w_slot_wild } ) ]

(* A slot location is an exact slot or, with [None], every slot of an
   account; two meet when their owners match and either is a wildcard or
   the keys match. *)
let reference_overlap (p : Bca.prediction) (q : Bca.prediction) =
  let open Bca in
  let eq = State.Address.equal in
  let slots ~writes x =
    let exact = if writes then x.p_w_slots else x.p_r_slots @ x.p_w_slots in
    let wild = if writes then x.p_w_slot_wild else x.p_r_slot_wild @ x.p_w_slot_wild in
    List.map (fun (a, k) -> (a, Some k)) exact @ List.map (fun a -> (a, None)) wild
  in
  let meets (a, k) (a', k') =
    eq a a'
    && match (k, k') with Some k, Some k' -> U256.equal k k' | _ -> true
  in
  let writes_meet x y =
    List.exists (fun a -> List.exists (eq a) (y.p_r_accounts @ y.p_w_accounts)) x.p_w_accounts
    || List.exists
         (fun w -> List.exists (meets w) (slots ~writes:false y))
         (slots ~writes:true x)
  in
  p.p_wild || q.p_wild || writes_meet p q || writes_meet q p

let union_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"footprint union = pairwise list reference"
       (QCheck.make QCheck.Gen.(list_size (int_range 1 12) gen_prediction))
       (fun ps ->
         let u = Bca.Union.create () in
         let rec go earlier = function
           | [] -> true
           | (p : Bca.prediction) :: rest ->
             let want = p.p_wild || List.exists (reference_overlap p) earlier in
             let got = Bca.Union.overlaps u p in
             Bca.Union.add u p;
             want = got && go (if p.p_wild then earlier else p :: earlier) rest
         in
         go [] ps))

(* ---- the commit loop's conflict check against the string-key rule ----

   Random blocks of (touch log, change list) pairs over the same four
   addresses, three slots each, the first address the coinbase.  Each
   transaction's verdict — do its reads meet an earlier transaction's
   writes? — must equal the location-key rule the union replaced: an
   account read is ["a:"], a code read ["c:"], a slot read its ["s:"] key
   plus its owner's ["d:"] key; a write of balance, nonce, creation or
   destruct is ["a:"], of code or destruct ["c:"], of a slot ["s:"], a
   destruct also ["d:"]; coinbase account reads and coinbase records
   carry no key. *)

let coinbase = addr_pool.(0)

let gen_touch =
  let open QCheck.Gen in
  let addr = map (Array.get addr_pool) (int_bound 3) in
  oneof
    [ map (fun a -> State.Statedb.T_account a) addr;
      map (fun a -> State.Statedb.T_code a) addr;
      map2 (fun a k -> State.Statedb.T_slot (a, U256.of_int k)) addr (int_bound 2) ]

let gen_change =
  let open QCheck.Gen in
  let addr = map (Array.get addr_pool) (int_bound 3) in
  let maybe g = frequency [ (3, return None); (1, map Option.some g) ] in
  let flag = frequency [ (5, return false); (1, return true) ] in
  addr >>= fun ch_addr ->
  maybe (map U256.of_int (int_bound 9)) >>= fun ch_balance ->
  maybe (int_bound 9) >>= fun ch_nonce ->
  maybe (return (String.make 32 '\x01')) >>= fun ch_code_hash ->
  list_size (int_bound 2) (map (fun k -> (U256.of_int k, U256.one)) (int_bound 2))
  >>= fun ch_slots ->
  flag >>= fun ch_created ->
  flag >>= fun ch_destructed ->
  return
    { State.Statedb.ch_addr; ch_balance; ch_nonce; ch_code_hash; ch_slots; ch_created;
      ch_destructed }

let string_key_read_keys touches =
  let b = State.Address.to_bytes in
  List.concat_map
    (function
      | State.Statedb.T_account a ->
        if State.Address.equal a coinbase then [] else [ "a:" ^ b a ]
      | State.Statedb.T_code a -> [ "c:" ^ b a ]
      | State.Statedb.T_slot (a, k) -> [ "s:" ^ b a ^ U256.to_bytes_be k; "d:" ^ b a ])
    touches

let string_key_write_keys changes =
  let b = State.Address.to_bytes in
  List.concat_map
    (fun (ch : State.Statedb.change) ->
      let a = ch.ch_addr in
      if State.Address.equal a coinbase then []
      else
        List.map (fun (k, _) -> "s:" ^ b a ^ U256.to_bytes_be k) ch.ch_slots
        @ (if ch.ch_balance <> None || ch.ch_nonce <> None || ch.ch_created
              || ch.ch_destructed
           then [ "a:" ^ b a ]
           else [])
        @ (if ch.ch_code_hash <> None || ch.ch_destructed then [ "c:" ^ b a ] else [])
        @ if ch.ch_destructed then [ "d:" ^ b a ] else [])
    changes

let conflict_set_matches_string_keys =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"commit conflict set = string-key reference"
       (QCheck.make
          QCheck.Gen.(
            list_size (int_range 1 10)
              (pair (list_size (int_bound 4) gen_touch) (list_size (int_bound 3) gen_change))))
       (fun block ->
         let u = Bca.Union.create () in
         let written = Hashtbl.create 16 in
         List.for_all
           (fun (reads, changes) ->
             let want = List.exists (Hashtbl.mem written) (string_key_read_keys reads) in
             let got = Bca.Union.reads_written u reads in
             List.iter (fun k -> Hashtbl.replace written k ()) (string_key_write_keys changes);
             Bca.Union.add_changes u ~coinbase changes;
             want = got)
           block))

(* ---- negative cases: each narrowing must trip its sentinel ---- *)

let sentinel_of = function
  | Bca.N_cfg -> "cfg-taken-branch"
  | Bca.N_stack -> "stack-dup-key"
  | Bca.N_footprint -> "footprint-sstore"
  | Bca.N_calldata -> "calldata-eq-branch"

let sentinels () = Fuzz.Runner.run_sentinels (Fuzz.Runner.new_tally ())

let narrowing_tripped n () =
  Fuzz.Runner.with_fault (Some (Fuzz.Runner.Narrow n)) (fun () ->
      let fs = sentinels () in
      let name = Bca.narrowing_name n and want = sentinel_of n in
      checkb (Printf.sprintf "narrowing %s yields violations" name) true (fs <> []);
      let contains hay sub =
        let n = String.length hay and m = String.length sub in
        let rec go i = i + m <= n && (String.sub hay i m = sub || go (i + 1)) in
        go 0
      in
      let in_ctx sub (f : Fuzz.Runner.finding) = contains f.ctx sub in
      checkb
        (Printf.sprintf "narrowing %s trips sentinel %s" name want)
        true
        (List.exists (in_ctx want) fs))

let narrowing_does_not_leak () =
  checkb "no narrowing active after the negative cases" true (!Bca.seeded_narrowing = None);
  checkb "sentinels are clean without a narrowing" true (sentinels () = [])

let suite =
  [ footprint_sound;
    union_matches_reference;
    conflict_set_matches_string_keys;
    t "negative: cfg narrowing caught" (narrowing_tripped Bca.N_cfg);
    t "negative: stack narrowing caught" (narrowing_tripped Bca.N_stack);
    t "negative: footprint narrowing caught" (narrowing_tripped Bca.N_footprint);
    t "negative: calldata narrowing caught" (narrowing_tripped Bca.N_calldata);
    t "narrowing flag does not leak" narrowing_does_not_leak ]
