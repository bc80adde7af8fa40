(* lib/bca in the alcotest suite: the qcheck soundness property (static
   footprint ⊇ runtime touch log, across every hardfork) on generated
   scenarios, plus one negative case per analysis domain — each seeded
   [Bca.narrowing] must trip its matching sentinel.  The heavyweight
   corpus + 200-per-fork sweep lives in lanes_ci (`dune build @bca`); this
   suite keeps a lighter property inside `dune test`. *)

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
    t "negative: cfg narrowing caught" (narrowing_tripped Bca.N_cfg);
    t "negative: stack narrowing caught" (narrowing_tripped Bca.N_stack);
    t "negative: footprint narrowing caught" (narrowing_tripped Bca.N_footprint);
    t "negative: calldata narrowing caught" (narrowing_tripped Bca.N_calldata);
    t "narrowing flag does not leak" narrowing_does_not_leak ]
