(* The @decode alias: the decoded-dispatch engine pinned byte-for-byte
   against the legacy match-dispatch interpreter (DESIGN.md §11).

   Four batteries, exit non-zero on any divergence (corpus and generated
   scenarios run through the same Legacy lane under @fuzz):
   1. a qcheck-generated random-bytecode sweep biased at the decoder's
      corners — truncated PUSH tails, PUSH data that looks like JUMPDEST,
      out-of-range jumps, unassigned opcode bytes, DUP1-op and
      PUSH-PUSH-op windows — through the Legacy lane's raw-bytecode
      differential (Fuzz.Runner.diff_code); the sweep must decode fused
      triples and fused dups, every decoded leader bitmap must equal one
      recomputed from the raw bytes, and no fused window may have a
      leader inside;
   2. a 4-domain cache hammer: lib/sched workers decoding and executing
      the same code hash concurrently must agree with the single-threaded
      receipt, while a fifth domain decodes more distinct codes than the
      cache holds, forcing evictions under contention; the cache ends at
      its bound;
   3. a mixed-spec cache audit: the same code hash hammered under all
      five hardfork specs concurrently — one cached program per spec,
      each wearing its own fork's gas column, never shared;
   4. four interpreter kernels (a JUMPDEST sled, a tight arithmetic loop,
      a keccak loop and an ERC-20 transfer) through both engines, compared
      on success, gas left, output, step count and committed root; the
      kernels' PUSH-PUSH-op runs must come out as fused triples on a
      plain decode. *)

let raw_iters = 1200
let seed = 42

let failures = ref 0

let report ~battery ~case divs =
  if divs <> [] then begin
    incr failures;
    Printf.printf "decode-ci: DIVERGENCE [%s] %s:\n%!" battery case;
    List.iter (fun d -> Fmt.pr "decode-ci:   %a@." Fuzz.Runner.pp_finding d) divs
  end

(* ---- 1: random bytecode via a qcheck generator ---- *)

let raw_case_gen : (string * string) QCheck.Gen.t =
 fun rng -> (Fuzz.Runner.random_code rng, Fuzz.Runner.random_data rng)

(* The leader set recomputed from the raw bytes, independently of
   [Decode]: pc 0, every JUMPDEST outside push data, and the byte after
   every JUMPI byte. *)
let leaders_of_code code =
  let n = String.length code in
  let l = Array.init n (fun pc -> pc = 0 || (code.[pc - 1] = '\x57')) in
  let pc = ref 0 in
  while !pc < n do
    let b = Char.code code.[!pc] in
    if b = 0x5b then l.(!pc) <- true;
    pc := !pc + 1 + if b >= 0x60 && b <= 0x7f then b - 0x5f else 0
  done;
  l

(* The decoded leader bitmap must equal the recomputed one, and no fused
   window (xop 0x2xx / 0x3xx) may have a leader at a pc after its first
   instruction.  Returns the number of windows checked. *)
let check_windows ~case code =
  let p = Evm.Decode.get ~hash:(Khash.Keccak.digest code) ~spec:!Spec.current code in
  let leaders = leaders_of_code code in
  let fail what =
    incr failures;
    Printf.printf "decode-ci: LEADERS: %s: %s\n%!" case what
  in
  if p.Evm.Decode.leaders <> leaders then fail "decoded leader bitmap differs";
  let next pc = p.Evm.Decode.instrs.(pc).Evm.Decode.next in
  let windows = ref 0 in
  Array.iteri
    (fun pc (i : Evm.Decode.instr) ->
      let interior =
        match i.Evm.Decode.xop lsr 8 with
        | 2 -> [ next pc ]
        | 3 -> [ next pc; next (next pc) ]
        | _ -> []
      in
      if interior <> [] then incr windows;
      if List.exists (fun q -> leaders.(q)) interior then
        fail (Printf.sprintf "window at pc %d has a leader inside" pc))
    p.Evm.Decode.instrs;
  !windows

let raw_battery () =
  let rand = Random.State.make [| 0xDEC0DE; seed |] in
  let cases = QCheck.Gen.generate ~rand ~n:raw_iters raw_case_gen in
  Obs.reset ();
  Obs.set_enabled true;
  List.iteri
    (fun i (code, data) ->
      report ~battery:"raw"
        ~case:(Printf.sprintf "case %d (%s)" i (Fuzz.Sexp.hex_of_string code))
        (Fuzz.Runner.diff_code ~data ~tx:i code))
    cases;
  Obs.set_enabled false;
  let triples = Obs.count (Obs.counter "interp.decode.fused_triples")
  and dups = Obs.count (Obs.counter "interp.decode.fused_dups") in
  let windows = ref 0 in
  List.iteri
    (fun i (code, _) -> windows := !windows + check_windows ~case:(Printf.sprintf "case %d" i) code)
    cases;
  Printf.printf
    "decode-ci: raw bytecode: %d cases (seed %d), %d fused triples, %d fused dups, %d \
     windows checked\n%!"
    raw_iters seed triples dups !windows;
  if triples = 0 || dups = 0 then begin
    incr failures;
    print_string "decode-ci: RAW: the battery decoded no fused triple or no fused dup\n"
  end

(* ---- 2: concurrent decode-cache hammer ---- *)

(* A keccak-loop kernel: hot enough that every job really executes, small
   enough to decode in microseconds.  All 64 jobs hit the same code hash. *)
let hammer_code =
  Evm.Asm.(
    assemble
      ([ push_int 16; push_int 0; op MSTORE;       (* mem[0..31] = counter *)
         label "loop";
         push_int 32; push_int 0; op SHA3;         (* keccak(mem[0..31]) *)
         op POP;
         push_int 0; op MLOAD; push_int 1; op (SWAP 1); op SUB;
         op (DUP 1); push_int 0; op MSTORE ]
      @ jumpi "loop" @ [ op STOP ]))

(* The churn domain's codes: PUSH2 i; STOP, all distinct. *)
let churn_codes = 4100
let tiny i = Printf.sprintf "\x61%c%c\x00" (Char.chr (i lsr 8)) (Char.chr (i land 0xff))

(* Returns the evictions the battery forced. *)
let hammer_battery () =
  Evm.Decode.clear_cache ();
  Obs.set_enabled true;
  let count name = Obs.count (Obs.counter name) in
  let h0 = count "interp.decode.hits" and m0 = count "interp.decode.misses" in
  let e0 = count "interp.decode.evictions" in
  let run () =
    let r, root =
      Fuzz.Runner.run_code ~engine:Evm.Interp.Decoded ~code:hammer_code ~data:""
        ~gas_limit:200_000 ~value:U256.zero ()
    in
    (Fuzz.Sexp.hex_of_string root, r.Evm.Processor.gas_used)
  in
  let reference = run () in
  let jobs = 4 and n = 64 in
  let churn =
    Domain.spawn (fun () ->
        for i = 1 to churn_codes do
          let code = tiny i in
          ignore (Evm.Decode.get ~hash:(Khash.Keccak.digest code) ~spec:!Spec.current code)
        done)
  in
  let s : (string * int) Sched.t = Sched.create ~jobs () in
  for i = 0 to n - 1 do
    Sched.submit s ~hash:(Printf.sprintf "hammer%d" i) ~priority:(U256.of_int 1) run
  done;
  Sched.barrier s;
  let results =
    List.filter_map
      (fun (r : _ Sched.result) ->
        match r.Sched.r_value with
        | Ok v -> Some v
        | Error e ->
          incr failures;
          Printf.printf "decode-ci: HAMMER: job %s raised %s\n%!" r.Sched.r_hash
            (Printexc.to_string e);
          None)
      (Sched.drain s)
  in
  Sched.shutdown s;
  Domain.join churn;
  Obs.set_enabled false;
  if List.length results <> n then begin
    incr failures;
    Printf.printf "decode-ci: HAMMER: %d results, expected %d\n%!" (List.length results) n
  end;
  List.iteri
    (fun i r ->
      if r <> reference then begin
        incr failures;
        Printf.printf "decode-ci: HAMMER DIVERGENCE job %d: (%s,%d) vs reference (%s,%d)\n%!"
          (i + 1) (fst r) (snd r) (fst reference) (snd reference)
      end)
    results;
  if Evm.Decode.cache_size () <> 4096 then begin
    incr failures;
    Printf.printf "decode-ci: HAMMER: cache holds %d programs, expected its bound 4096\n%!"
      (Evm.Decode.cache_size ())
  end;
  let hits = count "interp.decode.hits" - h0 and misses = count "interp.decode.misses" - m0 in
  let evictions = count "interp.decode.evictions" - e0 in
  if misses < churn_codes + 1 || hits + misses < churn_codes + n + 1 || evictions = 0 then begin
    incr failures;
    Printf.printf
      "decode-ci: HAMMER: cache counters off (hits %d, misses %d, evictions %d, jobs %d, \
       churned codes %d)\n%!"
      hits misses evictions n churn_codes
  end;
  evictions

(* ---- 3: mixed-spec cache audit ---- *)

(* The decode cache is keyed by code hash x spec id: two forks must never
   share a cached artifact, or one fork executes under the other's gas
   table.  Hammer ONE code hash under all five forks across 4 domains,
   then audit gas, cache population, and physical identity. *)
let mixed_code =
  Evm.Asm.(
    assemble [ push_int 0; op SLOAD; op POP; push_int 0; op SLOAD; op POP; op STOP ])

(* SLOAD is repriced by almost every fork, so each spec's cached program
   must carry its own static-gas column. *)
let mixed_expected fork =
  let spec = Spec.resolve fork in
  let once =
    3 + Spec.static_gas spec 0x54 + 2
    + if spec.Spec.has_access_lists then spec.Spec.g_cold_sload else 0
  in
  let twice = 3 + Spec.static_gas spec 0x54 + 2 in
  21000 + once + twice

let mixed_hash = Khash.Keccak.digest mixed_code

let mixed_spec_battery () =
  Evm.Decode.clear_cache ();
  let jobs = 4 and per_fork = 16 in
  let s : (string * string * int) Sched.t = Sched.create ~jobs () in
  List.iteri
    (fun fi fork ->
      for i = 0 to per_fork - 1 do
        Sched.submit s
          ~hash:(Printf.sprintf "mixed%d-%d" fi i)
          ~priority:(U256.of_int 1)
          (fun () ->
            let spec = Spec.resolve fork in
            let r, root =
              Fuzz.Runner.run_code ~spec ~engine:Evm.Interp.Decoded ~code:mixed_code
                ~data:"" ~gas_limit:200_000 ~value:U256.zero ()
            in
            (Spec.fork_name fork, Fuzz.Sexp.hex_of_string root, r.Evm.Processor.gas_used))
      done)
    Spec.all_forks;
  Sched.barrier s;
  let results =
    List.filter_map
      (fun (r : _ Sched.result) ->
        match r.Sched.r_value with
        | Ok v -> Some v
        | Error e ->
          incr failures;
          Printf.printf "decode-ci: MIXED: job %s raised %s\n%!" r.Sched.r_hash
            (Printexc.to_string e);
          None)
      (Sched.drain s)
  in
  Sched.shutdown s;
  if List.length results <> List.length Spec.all_forks * per_fork then begin
    incr failures;
    Printf.printf "decode-ci: MIXED: %d results, expected %d\n%!" (List.length results)
      (List.length Spec.all_forks * per_fork)
  end;
  (* every job's gas must match its own fork's schedule — a shared cached
     program would surface here as one fork wearing another's prices *)
  List.iter
    (fun (fname, _root, gas) ->
      match Spec.fork_of_string fname with
      | None -> ()
      | Some fork ->
        let exp = mixed_expected fork in
        if gas <> exp then begin
          incr failures;
          Printf.printf "decode-ci: MIXED: %s gas %d, expected %d\n%!" fname gas exp
        end)
    results;
  (* one cached program per spec for the single code hash *)
  if Evm.Decode.cache_size () <> List.length Spec.all_forks then begin
    incr failures;
    Printf.printf "decode-ci: MIXED: cache holds %d programs, expected %d\n%!"
      (Evm.Decode.cache_size ())
      (List.length Spec.all_forks)
  end;
  (* physical identity audit: same spec shares, different specs never do *)
  List.iter
    (fun f ->
      let spec = Spec.resolve f in
      let get () = Evm.Decode.get ~hash:mixed_hash ~spec mixed_code in
      if not (get () == get ()) then begin
        incr failures;
        Printf.printf "decode-ci: MIXED: %s re-decoded instead of cache hit\n%!"
          (Spec.fork_name f)
      end;
      List.iter
        (fun g ->
          if Spec.fork_id g > Spec.fork_id f then
            let p_f = get () in
            let p_g = Evm.Decode.get ~hash:mixed_hash ~spec:(Spec.resolve g) mixed_code in
            if p_f == p_g then begin
              incr failures;
              Printf.printf "decode-ci: MIXED: %s and %s share a cached artifact\n%!"
                (Spec.fork_name f) (Spec.fork_name g)
            end)
        Spec.all_forks)
    Spec.all_forks

(* ---- 4: interpreter kernels ---- *)

let kernel_battery () =
  let open State in
  let alice = Address.of_int 0xA11CE in
  let bob = Address.of_int 0xB0B in
  let addr_sled = Address.of_int 0x400F in
  let addr_loop = Address.of_int 0x100F in
  let addr_keccak = Address.of_int 0x200F in
  let token = Address.of_int 0x300F in
  (* tight ADD/MLOAD/JUMP countdown: mem[0] counter, mem[32] accumulator *)
  let tight_code =
    Evm.Asm.(
      assemble
        ([ push_int 3000; push_int 0; op MSTORE;
           label "loop";
           push_int 0; op MLOAD;                                  (* n *)
           op (DUP 1); push_int 32; op MLOAD; op ADD;
           push_int 32; op MSTORE;                                (* acc += n *)
           push_int 1; op (SWAP 1); op SUB;                       (* n-1 *)
           op (DUP 1); push_int 0; op MSTORE ]
        @ jumpi "loop" @ [ op STOP ]))
  in
  (* keccak over a 64-byte window, 500 rounds *)
  let keccak_code =
    Evm.Asm.(
      assemble
        ([ push_int 500; push_int 0; op MSTORE;
           label "loop";
           push_int 64; push_int 0; op SHA3; op POP;
           push_int 0; op MLOAD; push_int 1; op (SWAP 1); op SUB;
           op (DUP 1); push_int 0; op MSTORE ]
        @ jumpi "loop" @ [ op STOP ]))
  in
  let bk = Statedb.Backend.create () in
  let st0 = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_balance st0 alice (U256.of_string "1000000000000000000000");
  Statedb.set_code st0 addr_sled (String.make 4000 '\x5b' ^ "\x00");
  Statedb.set_code st0 addr_loop tight_code;
  Statedb.set_code st0 addr_keccak keccak_code;
  Contracts.Deploy.install_code st0 token Contracts.Erc20.code;
  Statedb.set_storage st0 token (Contracts.Erc20.balance_slot alice) (U256.of_int 1_000_000);
  let root = Statedb.commit st0 in
  let benv : Evm.Env.block_env =
    {
      coinbase = Address.of_int 0xC0FFEE;
      timestamp = 1_700_000_000L;
      number = 1000L;
      difficulty = U256.one;
      gas_limit = 12_000_000;
      chain_id = 1;
      block_hash = (fun n -> U256.of_int64 n);
    }
  in
  let kernels =
    [ ("nop-floor", addr_sled, "", 2_000_000);
      ("tight-loop", addr_loop, "", 2_000_000);
      ("keccak", addr_keccak, "", 2_000_000);
      ("erc20-transfer", token, Contracts.Erc20.transfer_call ~to_:bob ~amount:(U256.of_int 7),
       200_000) ]
  in
  let st = Statedb.create bk ~root in
  let call ~engine ~target ~data ~gas =
    let snap = Statedb.snapshot st in
    let ctx = Evm.Interp.make_ctx ~engine st benv ~origin:alice ~gas_price:U256.one in
    let r = Evm.Interp.call_message ctx ~caller:alice ~target ~value:U256.zero ~data ~gas in
    Statedb.revert st snap;
    (r, ctx.Evm.Interp.steps_executed)
  in
  (* one full transaction per engine on a fresh statedb, committed *)
  let committed_root ~engine ~target ~data ~gas =
    let st = Statedb.create bk ~root in
    let tx : Evm.Env.tx =
      { sender = alice; to_ = Some target; nonce = 0; value = U256.zero; data;
        gas_limit = gas; gas_price = U256.one }
    in
    ignore (Evm.Processor.execute_tx ~engine st benv tx);
    Statedb.commit st
  in
  Obs.reset ();
  Obs.set_enabled true;
  Evm.Decode.clear_cache ();
  List.iter
    (fun (name, target, data, gas) ->
      let r_d, steps_d = call ~engine:Evm.Interp.Decoded ~target ~data ~gas in
      let r_l, steps_l = call ~engine:Evm.Interp.Legacy ~target ~data ~gas in
      let before = !failures in
      let check what ok =
        if not ok then begin
          incr failures;
          Printf.printf "decode-ci: DIVERGENCE [kernel] %s: %s\n%!" name what
        end
      in
      check "success" (r_d.Evm.Interp.success = r_l.Evm.Interp.success);
      check "gas_left" (r_d.Evm.Interp.gas_left = r_l.Evm.Interp.gas_left);
      check "output" (String.equal r_d.Evm.Interp.output r_l.Evm.Interp.output);
      check "steps" (steps_d = steps_l);
      check "state_root"
        (String.equal
           (committed_root ~engine:Evm.Interp.Decoded ~target ~data ~gas:(gas + 21_000))
           (committed_root ~engine:Evm.Interp.Legacy ~target ~data ~gas:(gas + 21_000)));
      if steps_d = 0 then begin
        incr failures;
        Printf.printf "decode-ci: KERNELS: %s executed no step\n%!" name
      end;
      if !failures = before then
        Printf.printf "decode-ci: kernel %-14s %7d steps, engines agree\n%!" name steps_d)
    kernels;
  Obs.set_enabled false;
  (* the tight-loop and keccak kernels carry PUSH-PUSH-op runs, so a zero
     here means the leader certificate or the triple fuser regressed *)
  let triples = Obs.count (Obs.counter "interp.decode.fused_triples") in
  if triples = 0 then begin
    incr failures;
    print_string "decode-ci: KERNELS: no fused triples across the kernels\n"
  end
  else Printf.printf "decode-ci: kernels decoded %d fused triples\n%!" triples

let () =
  raw_battery ();
  let evictions = hammer_battery () in
  Printf.printf
    "decode-ci: hammer: 64 jobs across 4 domains, one code hash; %d churned codes, %d \
     interp.decode.evictions\n%!"
    churn_codes evictions;
  mixed_spec_battery ();
  Printf.printf
    "decode-ci: mixed-spec: 80 jobs across 4 domains, one code hash x %d forks\n%!"
    (List.length Spec.all_forks);
  kernel_battery ();
  if !failures > 0 then begin
    Printf.printf "decode-ci: %d FAILURE(S)\n%!" !failures;
    exit 1
  end;
  print_string "decode-ci: decoded and legacy engines agree everywhere\n"
