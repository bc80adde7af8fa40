(* Tests of the trace-based specializer: every synthesized path, replayed as
   an AP in the same or a CD-equivalent context, must reproduce the EVM's
   receipt and state root exactly; incompatible contexts must violate. *)

open State
open Evm

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int

let alice = Address.of_int 0xA11CE
let bob = Address.of_int 0xB0B
let feed = Address.of_int 0xFEED
let token = Address.of_int 0x70C0
let tok2 = Address.of_int 0x70C1
let pair = Address.of_int 0xAA00
let reg = Address.of_int 0x4E60
let ctr = Address.of_int 0xC0C0

let benv ?(ts = 3_990_462L) ?(coinbase = Address.of_int 0xC01) () : Env.block_env =
  {
    coinbase;
    timestamp = ts;
    number = 100L;
    difficulty = u 1;
    gas_limit = 12_000_000;
    chain_id = 1;
    block_hash = (fun _ -> U256.zero);
  }

(* Shared genesis; returns (backend, root). *)
let genesis () =
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  List.iter
    (fun a -> Statedb.set_balance st a (U256.of_string "1000000000000000000000"))
    [ alice; bob ];
  Contracts.Deploy.install_code st feed Contracts.Pricefeed.code;
  Contracts.Deploy.install_code st token Contracts.Erc20.code;
  Contracts.Deploy.install_code st tok2 Contracts.Erc20.code;
  Contracts.Deploy.install_code st reg Contracts.Registry.code;
  Contracts.Deploy.install_code st ctr Contracts.Counter.code;
  Statedb.set_storage st feed U256.zero (u 3_990_000);
  Contracts.Deploy.seed_erc20_balance st ~token ~owner:alice ~amount:(u 1_000_000);
  Contracts.Deploy.seed_erc20_balance st ~token:tok2 ~owner:alice ~amount:(u 1_000_000);
  Contracts.Deploy.install_amm st ~pair ~token0:token ~token1:tok2 ~reserve0:(u 500_000)
    ~reserve1:(u 250_000);
  Contracts.Deploy.seed_erc20_allowance st ~token ~owner:alice ~spender:pair
    ~amount:(u 1_000_000_000);
  Contracts.Deploy.seed_erc20_allowance st ~token:tok2 ~owner:alice ~spender:pair
    ~amount:(u 1_000_000_000);
  (bk, Statedb.commit st)

let mk ?(sender = alice) ?(nonce = 0) ?(value = U256.zero) ?(gas_limit = 1_000_000) to_ data :
    Env.tx =
  { sender; to_ = Some to_; nonce; value; data; gas_limit; gas_price = u 100 }

(* Speculate [tx] in [env] after [pre_txs]; returns the synthesized path
   (a template when [template]). *)
let build_path ?(template = false) bk root env pre_txs tx =
  let st = Statedb.create bk ~root in
  List.iter (fun t0 -> ignore (Processor.execute_tx st env t0)) pre_txs;
  let snap = Statedb.snapshot st in
  let sink, get = Trace.collector () in
  let receipt = Processor.execute_tx ~trace:sink st env tx in
  Statedb.revert st snap;
  match Sevm.Builder.build ~template tx env (get ()) receipt st with
  | Ok path -> path
  | Error e -> Alcotest.failf "builder rejected: %s" e

let receipts_agree a b = Processor.receipt_diffs a b = []

(* The core soundness check: run the AP and the EVM against the same actual
   context; if the AP hits, everything must agree. *)
let check_equiv ?(expect = `Hit) ap bk root env pre_txs tx =
  let st_ref = Statedb.create bk ~root in
  List.iter (fun t0 -> ignore (Processor.execute_tx st_ref env t0)) pre_txs;
  let ref_receipt = Processor.execute_tx st_ref env tx in
  let ref_root = Statedb.commit st_ref in
  let st_ap = Statedb.create bk ~root in
  List.iter (fun t0 -> ignore (Processor.execute_tx st_ap env t0)) pre_txs;
  match Ap.Exec.execute ap st_ap env tx with
  | Ap.Exec.Hit (receipt, _) ->
    Alcotest.(check bool) "expected a hit" true (expect = `Hit);
    Alcotest.(check bool) "receipts agree" true (receipts_agree receipt ref_receipt);
    Alcotest.(check string) "state roots agree" (Khash.Keccak.to_hex ref_root)
      (Khash.Keccak.to_hex (Statedb.commit st_ap))
  | Ap.Exec.Violation -> Alcotest.(check bool) "expected a violation" true (expect = `Violation)

let program_of path =
  let ap = Ap.Program.create () in
  Ap.Program.add_path ap path;
  ap

let single bk root env pre tx = program_of (build_path bk root env pre tx)

let oracle_tx = mk feed (Contracts.Pricefeed.submit_call ~round_id:3_990_300 ~price:1980)
let bob_oracle = mk ~sender:bob feed (Contracts.Pricefeed.submit_call ~round_id:3_990_300 ~price:2000)

let benv_default = benv ()

let builder_tests =
  [ t "path structure: guards precede the fast path" (fun () ->
        let bk, root = genesis () in
        let p = build_path bk root (benv ()) [] oracle_tx in
        Array.iteri
          (fun i ins ->
            match ins with
            | Sevm.Ir.Guard _ | Sevm.Ir.Guard_size _ | Sevm.Ir.Guard_warm _ ->
              Alcotest.(check bool) "guard in constraint section" true (i < p.first_fast)
            | Sevm.Ir.Compute _ | Sevm.Ir.Keccak _ | Sevm.Ir.Sha256 _ | Sevm.Ir.Pack _ | Sevm.Ir.Read _ -> ())
          p.instrs);
    t "rollback-free: no writes depend on fast-path-only undefined regs" (fun () ->
        let bk, root = genesis () in
        let p = build_path bk root (benv ()) [] oracle_tx in
        let defined = Hashtbl.create 32 in
        Array.iter
          (fun ins ->
            List.iter
              (fun r ->
                Alcotest.(check bool) "use after def" true (Hashtbl.mem defined r))
              (Sevm.Ir.instr_uses ins);
            match Sevm.Ir.instr_def ins with
            | Some r -> Hashtbl.replace defined r ()
            | None -> ())
          p.instrs;
        List.iter
          (fun w ->
            List.iter
              (fun r -> Alcotest.(check bool) "write uses defined reg" true (Hashtbl.mem defined r))
              (Sevm.Ir.write_uses w))
          p.writes);
    t "trace is drastically compressed" (fun () ->
        let bk, root = genesis () in
        let p = build_path bk root (benv ()) [ bob_oracle ] oracle_tx in
        Alcotest.(check bool) "path much smaller than trace" true
          (Array.length p.instrs * 2 < p.stats.evm_trace_len));
    t "gas and status recorded" (fun () ->
        let bk, root = genesis () in
        let p = build_path bk root (benv ()) [] oracle_tx in
        Alcotest.(check bool) "success" true (p.status = Processor.Success);
        Alcotest.(check bool) "gas plausible" true (p.gas_used > 21_000));
    t "inner CREATE is rejected, top-level creation is supported" (fun () ->
        let bk, root = genesis () in
        let st = Statedb.create bk ~root in
        let tx : Env.tx =
          { sender = alice; to_ = None; nonce = 0; value = U256.zero; data = "\x00";
            gas_limit = 100_000; gas_price = u 1 }
        in
        let snap = Statedb.snapshot st in
        let sink, get = Trace.collector () in
        let receipt = Processor.execute_tx ~trace:sink st benv_default tx in
        Statedb.revert st snap;
        match Sevm.Builder.build tx benv_default (get ()) receipt st with
        | Ok p -> Alcotest.(check bool) "has writes" true (List.length p.writes > 0)
        | Error e -> Alcotest.failf "creation should build: %s" e)
  ]

let equivalence_tests =
  [ t "oracle: exact context replay hits" (fun () ->
        let bk, root = genesis () in
        let env = benv () in
        let ap = single bk root env [ bob_oracle ] oracle_tx in
        check_equiv ap bk root env [ bob_oracle ] oracle_tx);
    t "oracle: different timestamp in round hits (CD-equiv)" (fun () ->
        let bk, root = genesis () in
        let ap = single bk root (benv ()) [ bob_oracle ] oracle_tx in
        check_equiv ap bk root (benv ~ts:3_990_599L ()) [ bob_oracle ] oracle_tx);
    t "oracle: timestamp outside round violates" (fun () ->
        let bk, root = genesis () in
        let ap = single bk root (benv ()) [ bob_oracle ] oracle_tx in
        check_equiv ~expect:`Violation ap bk root (benv ~ts:3_990_600L ()) [ bob_oracle ]
          oracle_tx);
    t "oracle: extra interfering submission still hits (same path)" (fun () ->
        let bk, root = genesis () in
        let bob2 =
          mk ~sender:bob ~nonce:1 feed
            (Contracts.Pricefeed.submit_call ~round_id:3_990_300 ~price:2100)
        in
        let ap = single bk root (benv ()) [ bob_oracle ] oracle_tx in
        check_equiv ap bk root (benv ()) [ bob_oracle; bob2 ] oracle_tx);
    t "oracle: branch flip (first-submitter) violates single-path AP" (fun () ->
        let bk, root = genesis () in
        (* speculated as aggregator (bob first), executed as round opener *)
        let ap = single bk root (benv ()) [ bob_oracle ] oracle_tx in
        check_equiv ~expect:`Violation ap bk root (benv ()) [] oracle_tx);
    t "oracle: merged AP covers both branches (paper Fig. 10)" (fun () ->
        let bk, root = genesis () in
        let env = benv () in
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (build_path bk root env [ bob_oracle ] oracle_tx);
        Ap.Program.add_path ap (build_path bk root (benv ~ts:3_990_478L ()) [] oracle_tx);
        Alcotest.(check int) "two paths" 2 ap.n_paths;
        check_equiv ap bk root env [ bob_oracle ] oracle_tx;
        check_equiv ap bk root (benv ~ts:3_990_521L ()) [] oracle_tx);
    t "different coinbase hits (fee write is dynamic)" (fun () ->
        let bk, root = genesis () in
        let ap = single bk root (benv ()) [] oracle_tx in
        check_equiv ap bk root (benv ~coinbase:(Address.of_int 0xDEAD) ()) [] oracle_tx);
    t "erc20 transfer: interference on other accounts tolerated" (fun () ->
        let bk, root = genesis () in
        let xfer = mk token (Contracts.Erc20.transfer_call ~to_:bob ~amount:(u 100)) in
        let ap = single bk root (benv ()) [] xfer in
        (* bob mints himself tokens first — alice's path is unaffected *)
        let interferer = mk ~sender:bob token (Contracts.Erc20.mint_call ~to_:bob ~amount:(u 5)) in
        check_equiv ap bk root (benv ()) [ interferer ] xfer);
    t "erc20 transfer: balance flip to overdraft violates" (fun () ->
        let bk, root = genesis () in
        let xfer = mk ~nonce:1 token (Contracts.Erc20.transfer_call ~to_:bob ~amount:(u 900_000)) in
        let drain = mk ~nonce:0 token (Contracts.Erc20.transfer_call ~to_:bob ~amount:(u 200_000)) in
        (* speculated without the drain: transfer succeeds *)
        let spend_first = mk ~nonce:0 token (Contracts.Erc20.transfer_call ~to_:bob ~amount:(u 1)) in
        let ap = single bk root (benv ()) [ spend_first ] xfer in
        (* actual: drain first -> overdraft branch *)
        check_equiv ~expect:`Violation ap bk root (benv ()) [ drain ] xfer);
    t "amm swap: reserve drift tolerated (imperfect prediction)" (fun () ->
        let bk, root = genesis () in
        let swap = mk pair (Contracts.Amm.swap_call ~amount_in:(u 1000) ~one_to_zero:false) in
        let ap = single bk root (benv ()) [] swap in
        let other =
          mk ~sender:bob token (Contracts.Erc20.mint_call ~to_:bob ~amount:(u 3))
        in
        check_equiv ap bk root (benv ()) [ other ] swap);
    t "registry race: win and lose paths" (fun () ->
        let bk, root = genesis () in
        let mine = mk reg (Contracts.Registry.register_call ~name:(u 42)) in
        let theirs = mk ~sender:bob reg (Contracts.Registry.register_call ~name:(u 42)) in
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (build_path bk root (benv ()) [] mine);
        Ap.Program.add_path ap (build_path bk root (benv ()) [ theirs ] mine);
        check_equiv ap bk root (benv ()) [] mine;
        check_equiv ap bk root (benv ()) [ theirs ] mine);
    t "plain transfer" (fun () ->
        let bk, root = genesis () in
        let p : Env.tx =
          { sender = alice; to_ = Some bob; nonce = 0; value = u 777; data = "";
            gas_limit = 30_000; gas_price = u 100 }
        in
        let ap = single bk root (benv ()) [] p in
        check_equiv ap bk root (benv ()) [] p);
    t "stale nonce violates" (fun () ->
        let bk, root = genesis () in
        let p : Env.tx =
          { sender = alice; to_ = Some bob; nonce = 0; value = u 777; data = "";
            gas_limit = 30_000; gas_price = u 100 }
        in
        let ap = single bk root (benv ()) [] p in
        let burn = mk ~nonce:0 ctr Contracts.Counter.increment_call in
        check_equiv ~expect:`Violation ap bk root (benv ()) [ burn ] p);
    t "invalid-nonce speculation builds a guardable path" (fun () ->
        let bk, root = genesis () in
        (* speculate a tx whose nonce is in the future: Invalid path *)
        let p = mk ~nonce:5 ctr Contracts.Counter.increment_call in
        let ap = single bk root (benv ()) [] p in
        (* still invalid at execution: hit with Invalid receipt *)
        check_equiv ap bk root (benv ()) [] p);
    t "counter: value drift tolerated" (fun () ->
        let bk, root = genesis () in
        let poke = mk ctr Contracts.Counter.increment_call in
        let ap = single bk root (benv ()) [] poke in
        let other = mk ~sender:bob ctr Contracts.Counter.increment_call in
        check_equiv ap bk root (benv ()) [ other ] poke);
    t "reverting tx accelerates too" (fun () ->
        let bk, root = genesis () in
        let wrong = mk feed (Contracts.Pricefeed.submit_call ~round_id:3_990_000 ~price:5) in
        let ap = single bk root (benv ()) [] wrong in
        check_equiv ap bk root (benv ()) [] wrong)
  ]

(* ---- symbolic memory: against Sevm_mem_ref, the per-byte table ---- *)

module R = Sevm_mem_ref
module M = Sevm.Symmem

type mem_op =
  | Word_const of int * U256.t
  | Word_reg of int * int
  | Byte of int * R.byte_src
  | Copy of int * R.byte_src array * int * int  (** dst, source, source offset, length *)
  | Copy_string of int * string * int * int

let pp_src = function
  | R.B_const c -> Printf.sprintf "%02x" (Char.code c)
  | R.B_reg (r, i) -> Printf.sprintf "v%d[%d]" r i

let pp_mem_op = function
  | Word_const (o, v) -> Printf.sprintf "mstore(%d, %s)" o (U256.to_hex v)
  | Word_reg (o, r) -> Printf.sprintf "mstore(%d, v%d)" o r
  | Byte (o, s) -> Printf.sprintf "mstore8(%d, %s)" o (pp_src s)
  | Copy (d, a, o, l) ->
    Printf.sprintf "copy(%d, [%s], %d, %d)" d
      (String.concat " " (Array.to_list (Array.map pp_src a)))
      o l
  | Copy_string (d, s, o, l) -> Printf.sprintf "codecopy(%d, %S, %d, %d)" d s o l

let symmem_tests =
  let open QCheck.Gen in
  (* aligned and unaligned offsets over a few words, so writes overlap *)
  let off = oneof [ map (fun k -> 32 * k) (int_bound 5); int_bound 170 ] in
  let src =
    oneof
      [ map (fun c -> R.B_const (Char.chr c)) (int_bound 255);
        map2 (fun r i -> R.B_reg (r, i)) (int_bound 6) (int_bound 31) ]
  in
  let op =
    frequency
      [ (3, map2 (fun o v -> Word_const (o, U256.of_int v)) off nat);
        (3, map2 (fun o r -> Word_reg (o, r)) off (int_bound 6));
        (2, map2 (fun o s -> Byte (o, s)) off src);
        ( 3,
          map (fun (d, a, o, l) -> Copy (d, Array.of_list a, o, l))
            (quad off (list_size (int_bound 40) src) (int_bound 50) (int_bound 70)) );
        ( 1,
          map (fun (d, s, o, l) -> Copy_string (d, s, o, l))
            (quad off (string_size ~gen:printable (int_bound 40)) (int_bound 50) (int_bound 70)) ) ]
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map pp_mem_op ops))
      ~shrink:QCheck.Shrink.list
      (list_size (int_range 1 12) op)
  in
  let apply m r = function
    | Word_const (o, v) -> M.write_const_word m o v; R.write_const_word r o v
    | Word_reg (o, reg) -> M.write_reg_word m o reg; R.write_reg_word r o reg
    | Byte (o, s) -> M.write_byte m o (R.to_src s); R.write_byte r o s
    | Copy (d, a, o, l) ->
      M.blit m ~dst:d (Array.map R.to_src a) ~off:o ~len:l;
      R.blit r ~dst:d a ~off:o ~len:l
    | Copy_string (d, s, o, l) ->
      M.blit_string m ~dst:d s ~off:o ~len:l;
      R.blit_string r ~dst:d s ~off:o ~len:l
  in
  (* every slice of [0, hw + 40), and slices straddling and past it *)
  let agree m r =
    let hw = R.high_water r in
    let slices = [ (0, hw + 40); (hw, 33); (hw + 7, 32); (max 0 (hw - 5), 32); (hw / 2, 64) ] in
    M.high_water m = hw
    && List.for_all
         (fun (o, l) -> Array.map R.of_src (M.slice (M.bytes m) o l) = R.slice r o l)
         slices
    && List.for_all
         (fun i -> R.of_src (M.get (M.bytes m) i) = (R.slice r i 1).(0))
         [ 0; hw - 1; hw; hw + 100 ]
  in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"symbolic memory agrees with the per-byte table" arb
         (fun ops ->
           let m = M.create () and r = R.create () in
           List.for_all (fun o -> apply m r o; agree m r) ops));
    t "encoding round-trips every constant and register byte" (fun () ->
        for c = 0 to 255 do
          Alcotest.(check bool)
            "const" true
            (R.of_src (M.of_char (Char.chr c)) = R.B_const (Char.chr c))
        done;
        List.iter
          (fun r ->
            for i = 0 to 31 do
              Alcotest.(check bool) "reg" true (R.of_src (M.of_reg r i) = R.B_reg (r, i))
            done)
          [ 0; 1; 7; 1000; 1 lsl 40 ]);
    t "a write past the cap is refused, a zero-length one anywhere is a no-op" (fun () ->
        let m = M.create () in
        M.blit m ~dst:max_int [||] ~off:0 ~len:0;
        M.blit_string m ~dst:(max_int - 3) "" ~off:0 ~len:0;
        Alcotest.(check int) "nothing written" 0 (M.high_water m);
        Alcotest.check_raises "offset wraps" M.Out_of_range (fun () ->
            M.write_reg_word m (max_int - 3) 0);
        Alcotest.check_raises "beyond the cap" M.Out_of_range (fun () ->
            M.write_byte m (1 lsl 40) M.zero)) ]

(* A DUP deeper than the symbolic stack is an [Unsupported] build error,
   like POP and SWAP: the transaction falls back to the EVM. *)
let underflow_tests =
  [ t "DUP on an empty frame is a build error, not an exception" (fun () ->
        let bk, root = genesis () in
        let env = benv () in
        let tx = mk ctr Contracts.Counter.increment_call in
        let st = Statedb.create bk ~root in
        let snap = Statedb.snapshot st in
        let receipt = Processor.execute_tx st env tx in
        Statedb.revert st snap;
        let step op : Trace.event =
          Trace.Step { pc = 0; depth = 0; ctx_address = ctr; op; inputs = [||]; outputs = [||] }
        in
        List.iter
          (fun (name, op) ->
            match Sevm.Builder.build tx env [| step op |] receipt st with
            | Error e -> Alcotest.(check string) name "symbolic stack underflow" e
            | Ok _ -> Alcotest.failf "%s on an empty stack was built" name)
          [ ("DUP1", Op.DUP 1); ("DUP16", Op.DUP 16); ("SWAP1", Op.SWAP 1); ("POP", Op.POP) ]) ]

(* Randomized soundness: arbitrary small contexts; AP must hit-and-agree or
   violate, never diverge. *)
let random_soundness =
  let amm_pair = pair in
  let gen =
    QCheck.Gen.(
      let pre =
        oneofl
          [ []; [ bob_oracle ]; [ mk ~sender:bob ctr Contracts.Counter.increment_call ];
            [ mk ~sender:bob reg (Contracts.Registry.register_call ~name:(u 42)) ];
            [ bob_oracle; mk ~sender:bob ~nonce:1 ctr Contracts.Counter.increment_call ] ]
      in
      let target =
        oneofl
          [ oracle_tx; mk reg (Contracts.Registry.register_call ~name:(u 42));
            mk ctr Contracts.Counter.increment_call;
            mk token (Contracts.Erc20.transfer_call ~to_:bob ~amount:(u 123));
            mk amm_pair (Contracts.Amm.swap_call ~amount_in:(u 500) ~one_to_zero:false) ]
      in
      let ts = map (fun d -> Int64.of_int (3_990_300 + d)) (int_bound 400) in
      triple pre target ts)
  in
  let arb = QCheck.make ~print:(fun _ -> "<scenario>") gen in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60 ~name:"AP never diverges from the EVM" arb
         (fun (actual_pre, tx, ts) ->
           let bk, root = genesis () in
           (* speculate in one fixed context *)
           let ap = Ap.Program.create () in
           Ap.Program.add_path ap (build_path bk root (benv ()) [ bob_oracle ] tx);
           Ap.Program.add_path ap (build_path bk root (benv ~ts:3_990_350L ()) [] tx);
           (* execute in the random actual context *)
           let env = benv ~ts () in
           let st_ref = Statedb.create bk ~root in
           List.iter (fun t0 -> ignore (Processor.execute_tx st_ref env t0)) actual_pre;
           let ref_receipt = Processor.execute_tx st_ref env tx in
           let ref_root = Statedb.commit st_ref in
           let st_ap = Statedb.create bk ~root in
           List.iter (fun t0 -> ignore (Processor.execute_tx st_ap env t0)) actual_pre;
           match Ap.Exec.execute ap st_ap env tx with
           | Ap.Exec.Violation -> true
           | Ap.Exec.Hit (receipt, _) ->
             receipts_agree receipt ref_receipt
             && String.equal ref_root (Statedb.commit st_ap)))
  ]

(* a contract that sha256-hashes a storage value via the 0x02 precompile *)
let hasher = Address.of_int 0x4A54

let hasher_code =
  let open Evm.Asm in
  assemble
    ([ (* mem[0..32] = sload(0) *)
       push_int 0; op Evm.Op.SLOAD; push_int 0; op Evm.Op.MSTORE;
       (* CALL(gas, 0x02, 0, 0, 32, 32, 32) *)
       push_int 32; push_int 32; push_int 32; push_int 0; push_int 0; push_int 2;
       op Evm.Op.GAS; op Evm.Op.CALL; op Evm.Op.POP;
       (* sstore(1, digest) *)
       push_int 32; op Evm.Op.MLOAD; push_int 1; op Evm.Op.SSTORE; op Evm.Op.STOP ])

let sha256_precompile_tests =
  [ t "sha256 precompile with symbolic input survives value drift" (fun () ->
        let bk, root = genesis () in
        let st = Statedb.create bk ~root in
        Contracts.Deploy.install_code st hasher hasher_code;
        Statedb.set_storage st hasher U256.zero (u 111);
        let root = Statedb.commit st in
        let tx = mk hasher "" in
        let ap = single bk root (benv ()) [] tx in
        (* same context *)
        check_equiv ap bk root (benv ()) [] tx;
        (* a different committed seed changes the hashed value: the AP must
           recompute the sha256 dynamically and still agree with the EVM *)
        let st3 = Statedb.create bk ~root in
        Statedb.set_storage st3 hasher U256.zero (u 222);
        let root2 = Statedb.commit st3 in
        let st_ref = Statedb.create bk ~root:root2 in
        let rr = Processor.execute_tx st_ref (benv ()) tx in
        let ref_root = Statedb.commit st_ref in
        let st_ap = Statedb.create bk ~root:root2 in
        match Ap.Exec.execute ap st_ap (benv ()) tx with
        | Ap.Exec.Hit (r, _) ->
          Alcotest.(check bool) "receipts agree" true (receipts_agree r rr);
          Alcotest.(check string) "roots agree" (Khash.Keccak.to_hex ref_root)
            (Khash.Keccak.to_hex (Statedb.commit st_ap));
          (* and the digest really is sha256(222) *)
          Alcotest.(check string) "digest correct"
            (Khash.Keccak.to_hex (Khash.Sha256.digest (U256.to_bytes_be (u 222))))
            (Khash.Keccak.to_hex
               (U256.to_bytes_be (Statedb.get_storage st_ap hasher U256.one)))
        | Ap.Exec.Violation -> Alcotest.fail "expected hit")
  ]

let extcodecopy_tests =
  (* a contract that copies the first 4 bytes of another contract's code
     into storage *)
  let copier = Address.of_int 0xC09D in
  let copier_code =
    let open Evm.Asm in
    assemble
      [ push_int 4; push_int 0; push_int 0; push (Address.to_u256 ctr);
        op Evm.Op.EXTCODECOPY; push_int 0; op Evm.Op.MLOAD; push_int 0; op Evm.Op.SSTORE;
        op Evm.Op.STOP ]
  in
  [ t "EXTCODECOPY is specialized under a code-hash guard" (fun () ->
        let bk, root = genesis () in
        let st = Statedb.create bk ~root in
        Contracts.Deploy.install_code st copier copier_code;
        let root = Statedb.commit st in
        let tx = mk copier "" in
        let ap = single bk root (benv ()) [] tx in
        (* the path contains an EXTCODEHASH read guarding the copy *)
        check_equiv ap bk root (benv ()) [] tx;
        check_equiv ap bk root (benv ~ts:3_990_480L ()) [] tx)
  ]

let auction = Address.of_int 0xA0C7

let auction_equiv_tests =
  let genesis_with_auction () =
    let bk, root = genesis () in
    let st = Statedb.create bk ~root in
    Contracts.Deploy.install_code st auction Contracts.Auction.code;
    (bk, Statedb.commit st)
  in
  let bid ?(sender = alice) ?(nonce = 0) amount : Env.tx =
    { sender; to_ = Some auction; nonce; value = u amount; data = Contracts.Auction.bid_call;
      gas_limit = 200_000; gas_price = u 100 }
  in
  [ t "auction: outbid with refund replays exactly" (fun () ->
        let bk, root = genesis_with_auction () in
        let ap = single bk root (benv ()) [ bid ~sender:bob 100 ] (bid 250) in
        check_equiv ap bk root (benv ()) [ bid ~sender:bob 100 ] (bid 250));
    t "auction: different prior amount hits (refund value is a register)" (fun () ->
        let bk, root = genesis_with_auction () in
        let ap = single bk root (benv ()) [ bid ~sender:bob 100 ] (bid 250) in
        check_equiv ap bk root (benv ()) [ bid ~sender:bob 180 ] (bid 250));
    t "auction: different prior bidder violates (call target is control)" (fun () ->
        let bk, root = genesis_with_auction () in
        let ap = single bk root (benv ()) [ bid ~sender:bob 100 ] (bid 250) in
        check_equiv ~expect:`Violation ap bk root (benv ())
          [ { (bid ~sender:Address.zero 0) with sender = Address.of_int 0xCAFE1; value = u 120 } ]
          (bid 250));
    t "auction: merged AP covers first-bid and outbid branches" (fun () ->
        let bk, root = genesis_with_auction () in
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (build_path bk root (benv ()) [ bid ~sender:bob 100 ] (bid 250));
        Ap.Program.add_path ap (build_path bk root (benv ()) [] (bid 250));
        check_equiv ap bk root (benv ()) [ bid ~sender:bob 100 ] (bid 250);
        check_equiv ap bk root (benv ()) [] (bid 250));
    t "auction: losing bid (revert path) accelerates" (fun () ->
        let bk, root = genesis_with_auction () in
        let ap = single bk root (benv ()) [ bid ~sender:bob 900 ] (bid 250) in
        check_equiv ap bk root (benv ()) [ bid ~sender:bob 900 ] (bid 250))
  ]

(* a deploy transaction: initcode returns a 3-byte runtime *)
let creation_tests =
  let initcode =
    let open Evm.Asm in
    let runtime = "\x60\x2a\x00" (* PUSH1 42; STOP *) in
    let frag rest_off =
      [ push_int (String.length runtime); push_int rest_off; push_int 0; op Evm.Op.CODECOPY;
        push_int (String.length runtime); push_int 0; op Evm.Op.RETURN ]
    in
    let sizer = assemble (frag 0) in
    assemble (frag (String.length sizer)) ^ runtime
  in
  let deploy_tx ?(nonce = 0) ?(value = U256.zero) () : Env.tx =
    { sender = alice; to_ = None; nonce; value; data = initcode; gas_limit = 300_000;
      gas_price = u 100 }
  in
  [ t "creation deploys through the AP with matching roots" (fun () ->
        let bk, root = genesis () in
        let tx = deploy_tx () in
        let ap = single bk root (benv ()) [] tx in
        check_equiv ap bk root (benv ()) [] tx;
        (* and the code actually landed *)
        let st = Statedb.create bk ~root in
        (match Ap.Exec.execute ap st (benv ()) tx with
        | Ap.Exec.Hit (r, _) ->
          let addr = Address.of_bytes r.output in
          Alcotest.(check bool) "receipt carries the created address" true
            (r.contract_address = Some addr);
          Alcotest.(check string) "runtime" "\x60\x2a\x00" (Statedb.get_code st addr);
          Alcotest.(check int) "nonce 1" 1 (Statedb.get_nonce st addr)
        | Ap.Exec.Violation -> Alcotest.fail "expected hit"));
    t "creation with an endowment moves the value" (fun () ->
        let bk, root = genesis () in
        let tx = deploy_tx ~value:(u 12345) () in
        let ap = single bk root (benv ()) [] tx in
        check_equiv ap bk root (benv ()) [] tx);
    t "stale nonce shifts the address: violation" (fun () ->
        let bk, root = genesis () in
        let tx = deploy_tx ~nonce:0 () in
        let ap = single bk root (benv ()) [] tx in
        (* alice acts first with another tx, so the deploy nonce is stale *)
        let burn = mk ~nonce:0 ctr Contracts.Counter.increment_call in
        check_equiv ~expect:`Violation ap bk root (benv ()) [ burn ] tx);
    t "creation in a different timestamp still hits" (fun () ->
        let bk, root = genesis () in
        let tx = deploy_tx () in
        let ap = single bk root (benv ()) [] tx in
        check_equiv ap bk root (benv ~ts:3_990_520L ()) [] tx)
  ]

(* ---- template gas envelope and input binding ---- *)

let envelope_tests =
  [ t "template envelope: a call-free transfer serves every limit that pays its path"
      (fun () ->
        let bk, root = genesis () in
        let env = benv () in
        let tx = mk token (Contracts.Erc20.transfer_call ~to_:bob ~amount:(u 500)) in
        let p = build_path ~template:true bk root env [] tx in
        let ap = program_of p and exact = p.gas_used + p.gas_refund in
        Alcotest.(check bool) "fixture: traced limit is generous" true (exact < tx.gas_limit);
        check_equiv ap bk root env [] { tx with gas_limit = exact };
        check_equiv ap bk root env [] { tx with gas_limit = exact + 1 };
        check_equiv ~expect:`Violation ap bk root env [] { tx with gas_limit = exact - 1 });
    t "bind_inputs: calldata words zero-pad past the end; gas inputs agree" (fun () ->
        let w0 = String.init 32 (fun i -> Char.chr (i + 1)) in
        let data = "\xa9\x05\x9c\xbb" ^ w0 ^ "\xde\xad\x01" in
        let tx = { (mk token data) with gas_limit = 90_000 } in
        let spec = !Spec.current in
        let regs = Array.make 6 U256.zero in
        Sevm.Ir.bind_inputs ~spec tx
          [| In_calldata_word 0; In_calldata_word 1; In_calldata_word 2; In_gas_limit;
             In_intrinsic_gas; In_gas_used { g_exec = 1000; g_refund = 0 } |]
          regs;
        let intrinsic = Spec.intrinsic_gas spec ~is_create:false data in
        let word s = U256.of_bytes_be s in
        let check what want got = Alcotest.(check string) what (U256.to_hex want) (U256.to_hex got) in
        check "full word" (word w0) regs.(0);
        check "tail word" (word ("\xde\xad\x01" ^ String.make 29 '\000')) regs.(1);
        check "word past the end" U256.zero regs.(2);
        check "gas limit" (u 90_000) regs.(3);
        check "intrinsic" (u intrinsic) regs.(4);
        check "gas used" (u (intrinsic + 1000)) regs.(5)) ]

(* ---- piece materialization: against Pieces_ref, the Buffer version ---- *)

let pieces_tests =
  let open QCheck.Gen in
  let word = map (fun (a, b, c, d) -> U256.of_limbs a b c d) (quad int64 int64 int64 int64) in
  let n_regs = 4 in
  (* constants, full words, and partial words at every offset (empty ones
     included) *)
  let piece =
    frequency
      [ (2, map (fun s -> Sevm.Ir.P_const s) (string_size ~gen:char (0 -- 40)));
        (2, map (fun r -> Sevm.Ir.P_reg (r, 0, 32)) (int_bound (n_regs - 1)));
        ( 3,
          int_bound (n_regs - 1) >>= fun r ->
          int_bound 31 >>= fun off ->
          map (fun len -> Sevm.Ir.P_reg (r, off, len)) (int_bound (32 - off)) ) ]
  in
  let gen = pair (array_repeat n_regs word) (list_size (0 -- 8) piece) in
  let print (_, ps) = Fmt.str "%a" (Fmt.Dump.list Sevm.Ir.pp_piece) ps in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"bytes_of_pieces equals the Buffer reference"
         (QCheck.make ~print gen) (fun (regs, ps) ->
           String.equal (Sevm.Ir.bytes_of_pieces regs ps) (Pieces_ref.bytes_of_pieces regs ps)));
    t "bytes_of_pieces of no pieces is empty" (fun () ->
        Alcotest.(check string) "empty" "" (Sevm.Ir.bytes_of_pieces [||] [])) ]

let suite =
  builder_tests @ symmem_tests @ pieces_tests @ underflow_tests @ equivalence_tests
  @ sha256_precompile_tests
  @ extcodecopy_tests @ auction_equiv_tests @ creation_tests @ envelope_tests @ random_soundness
