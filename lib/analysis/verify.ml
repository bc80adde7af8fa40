(* The static verifier.  See verify.mli for the invariant catalogue.

   Two traversals share the work:

   - a structural pass visits every node and block exactly once (guards
     inside blocks, piece well-formedness, branch case distinctness,
     memo io/replay checks);
   - a per-path pass runs the linear checkers (def-before-use, register
     bounds, schedule conformance, guard coverage, memo downstream
     liveness) over every root→leaf [Dataflow.line].

   The guard-coverage checker deliberately restricts itself to the
   constraint section: fast-path reads of mutable state evaluate live at
   AP-execution time (e.g. sstore(slot, sload(slot)+k) re-reads the slot),
   so they need no guard — that is the paper's CD-Equiv split.  What must
   hold is that every mutable read placed *before* the fast path exists to
   feed a guard; [Sevm.Opt.schedule] guarantees it for builder output, and
   a dropped or corrupted guard breaks it. *)

module I = Sevm.Ir
module P = Ap.Program
module D = Dataflow
module R = Report

exception Verification_failed of R.violation list

let () =
  Printexc.register_printer (function
    | Verification_failed vs ->
      Some (Fmt.str "@[<v>Analysis.Verify.Verification_failed:@ %a@]" R.pp_list vs)
    | _ -> None)

let obs_programs = Obs.counter "analysis.programs_checked"
let obs_paths = Obs.counter "analysis.paths_checked"
let obs_violations = Obs.counter "analysis.violations_total"

let kind_counter =
  let table =
    List.map (fun k -> (k, Obs.counter ("analysis.violations." ^ R.kind_name k))) R.all_kinds
  in
  fun k -> List.assq k table

(* ---- violation collection ---- *)

type collector = { mutable vs : R.violation list }

let report acc kind site fmt =
  Format.kasprintf (fun detail -> acc.vs <- { R.kind; site; detail } :: acc.vs) fmt

let finalize acc =
  let vs = List.sort_uniq compare acc.vs in
  List.iter
    (fun (v : R.violation) ->
      Obs.incr obs_violations;
      Obs.incr (kind_counter v.kind))
    vs;
  vs

(* ---- local well-formedness of pieces ---- *)

let check_piece acc site what = function
  | I.P_const _ -> ()
  | I.P_reg (r, off, len) ->
    if off < 0 || len < 1 || off + len > 32 then
      report acc R.Well_formedness site
        "P_reg(v%d, %d, %d) slices outside the 32-byte word in %s" r off len what

let check_instr_pieces acc site = function
  | I.Keccak (_, ps) | I.Sha256 (_, ps) ->
    List.iter (check_piece acc site "a hash input") ps
  | I.Pack (_, ps) ->
    List.iter (check_piece acc site "a Pack") ps;
    let len = I.pieces_len ps in
    if len <> 32 then
      report acc R.Well_formedness site "Pack assembles %d bytes where a 32-byte word is required"
        len
  | I.Compute _ | I.Read _ | I.Guard _ | I.Guard_size _ | I.Guard_warm _ -> ()

let check_write_pieces acc site = function
  | I.W_code (_, ps) -> List.iter (check_piece acc site "deployed code") ps
  | I.W_log (_, _, ps) -> List.iter (check_piece acc site "log data") ps
  | I.W_storage _ | I.W_storage_dyn _ | I.W_balance_set _ | I.W_balance_add _
  | I.W_balance_sub _ | I.W_nonce_set _ | I.W_nonce_dyn _ -> ()

(* ---- the linear checkers (shared by paths and AP enumerations) ---- *)

(* On a line through an AP ([~node_guards:true]) every guard step is a
   branch node's test, whose operand [check_node] bounds-checks once at the
   node; reporting it again per line would count one fault once per case. *)
let check_line acc ~reg_count ~n_inputs ~node_guards (l : D.line) =
  let n = Array.length l.steps in
  let nregs = max reg_count 1 in
  let in_bounds r = r >= 0 && r < reg_count in
  let first_fast = max 0 (min l.first_fast n) in
  (* forward pass: bounds and def-before-use, including writes/output.
     Template input registers (0..n_inputs-1) are defined before the first
     instruction: the executor seeds them from the transaction served. *)
  let defined = Array.make nregs false in
  for r = 0 to min n_inputs nregs - 1 do
    defined.(r) <- true
  done;
  let check_use ?(bounds = true) site what r =
    if not (in_bounds r) then begin
      if bounds then
        report acc R.Reg_bounds site "register v%d out of bounds (reg_count = %d) in %s" r
          reg_count (what ())
    end
    else if not defined.(r) then
      report acc R.Def_before_use site "v%d used before any definition on this path, in %s" r
        (what ())
  in
  Array.iteri
    (fun i (site, step) ->
      let what () = Fmt.str "%a" D.pp_step step in
      let bounds = match step with D.S_guard _ -> not node_guards | D.S_instr _ -> true in
      List.iter (check_use ~bounds site what) (D.step_uses step);
      (match step with
      | D.S_guard _ ->
        if i >= first_fast then
          report acc R.Rollback_freedom site
            "guard in the fast-path region (step %d, fast path starts at step %d): a failure \
             here could not undo earlier effects"
            i first_fast
      | D.S_instr _ -> ());
      match D.step_def step with
      | Some r ->
        if not (in_bounds r) then
          report acc R.Reg_bounds site "defined register v%d out of bounds (reg_count = %d)" r
            reg_count
        else defined.(r) <- true
      | None -> ())
    l.steps;
  List.iter
    (fun w ->
      List.iter (check_use l.writes_site (fun () -> Fmt.str "%a" I.pp_write w)) (I.write_uses w))
    l.writes;
  List.iter
    (fun p ->
      List.iter (check_use l.output_site (fun () -> "the output pieces")) (I.piece_regs p))
    l.output;
  (* backward pass: mark every step some guard transitively depends on *)
  let def_site = Array.make nregs (-1) in
  Array.iteri
    (fun i (_, step) ->
      match D.step_def step with
      | Some r when in_bounds r && def_site.(r) < 0 -> def_site.(r) <- i
      | Some _ | None -> ())
    l.steps;
  let guard_live = Array.make (max n 1) false in
  let rec mark r =
    if in_bounds r && def_site.(r) >= 0 && not guard_live.(def_site.(r)) then begin
      guard_live.(def_site.(r)) <- true;
      List.iter mark (D.step_uses (snd l.steps.(def_site.(r))))
    end
  in
  Array.iter
    (fun (_, step) ->
      match step with
      | D.S_guard (op, _) -> List.iter mark (I.operand_regs op)
      | D.S_instr _ -> ())
    l.steps;
  (* schedule conformance + guard coverage over the constraint section *)
  for i = 0 to first_fast - 1 do
    let site, step = l.steps.(i) in
    match step with
    | D.S_instr ins when not guard_live.(i) -> (
      match ins with
      | I.Read (_, src) when D.mutable_read_src src ->
        report acc R.Guard_coverage site
          "mutable-state read %a sits in the constraint section but feeds no guard on this \
           path: a context change there would go undetected"
          I.pp_instr ins
      | _ ->
        report acc R.Rollback_freedom site
          "constraint-section instruction %a feeds no guard on this path: everything before \
           the fast path must exist to check constraints (schedule invariant)"
          I.pp_instr ins)
    | D.S_instr _ | D.S_guard _ -> ()
  done;
  (* memo skips must commit every definition still live downstream *)
  List.iter
    (fun (m : D.memo_site) ->
      let downstream = Hashtbl.create 16 in
      let use r = Hashtbl.replace downstream r () in
      for j = m.m_end to n - 1 do
        List.iter use (D.step_uses (snd l.steps.(j)))
      done;
      List.iter (fun w -> List.iter use (I.write_uses w)) l.writes;
      List.iter (fun p -> List.iter use (I.piece_regs p)) l.output;
      let defs = Array.to_list m.m_block.instrs |> List.filter_map I.instr_def in
      List.iteri
        (fun mi (memo : P.memo) ->
          List.iter
            (fun r ->
              if Hashtbl.mem downstream r && not (Array.exists (Int.equal r) memo.out_regs)
              then
                report acc R.Memo_soundness
                  (Printf.sprintf "%s>memo#%d" m.m_site mi)
                  "skipping the segment would drop v%d: defined inside it, live after it, \
                   but missing from the memo's out_regs"
                  r)
            defs)
        m.m_block.memos)
    l.memo_sites

(* ---- memo replay (through the executor's own arithmetic) ---- *)

(* Replay a pure segment with the memo's inputs and compare against its
   recorded outputs.  Computes go through [Ap.Exec.compute] — the function
   the executor itself uses — so a miscompiled executor (e.g. the test-only
   ADD fault) disagrees with memo values recorded from the honest EVM
   trace and is caught statically.  Returns the first mismatching
   (register, replayed, recorded), or [None]. *)
let memo_replay_mismatch (instrs : I.instr array) (m : P.memo) =
  let top = ref 0 in
  let see r = if r > !top then top := r in
  Array.iter
    (fun ins ->
      List.iter see (I.instr_uses ins);
      match I.instr_def ins with Some r -> see r | None -> ())
    instrs;
  Array.iter see m.in_regs;
  Array.iter see m.out_regs;
  let regs = Array.make (!top + 1) U256.zero in
  try
    Array.iteri (fun i r -> regs.(r) <- m.in_vals.(i)) m.in_regs;
    Array.iter
      (fun ins ->
        match ins with
        | I.Compute (r, op, args) ->
          let arg = I.arg_value regs args in
          regs.(r) <- Ap.Exec.compute op (arg 0) (arg 1) (arg 2)
        | I.Keccak (r, ps) -> regs.(r) <- Khash.Keccak.digest_u256 (I.bytes_of_pieces regs ps)
        | I.Sha256 (r, ps) ->
          regs.(r) <- U256.of_bytes_be (Khash.Sha256.digest (I.bytes_of_pieces regs ps))
        | I.Pack (r, ps) -> regs.(r) <- U256.of_bytes_be (I.bytes_of_pieces regs ps)
        | I.Read _ | I.Guard _ | I.Guard_size _ | I.Guard_warm _ -> raise Exit)
      instrs;
    let bad = ref None in
    Array.iteri
      (fun i r ->
        if !bad = None && not (U256.equal regs.(r) m.out_vals.(i)) then
          bad := Some (r, regs.(r), m.out_vals.(i)))
      m.out_regs;
    !bad
  with
  (* impure segment or broken indices: reported by the other checkers *)
  | Exit | Invalid_argument _ -> None

(* ---- structural pass (once per block / node) ---- *)

let pp_regs = Fmt.(brackets (array ~sep:comma int))

let check_block acc ~reg_count site (b : P.block) =
  let has_read = Array.exists (function I.Read _ -> true | _ -> false) b.instrs in
  Array.iteri
    (fun j ins ->
      let isite = Printf.sprintf "%s>i#%d" site j in
      (match ins with
      | I.Guard _ | I.Guard_size _ | I.Guard_warm _ ->
        report acc R.Rollback_freedom isite
          "guard instruction %a inside a straight-line block: guards may only appear as \
           branch nodes, before any effect"
          I.pp_instr ins
      | I.Compute _ | I.Keccak _ | I.Sha256 _ | I.Pack _ | I.Read _ -> ());
      check_instr_pieces acc isite ins)
    b.instrs;
  if b.memos <> [] && has_read then
    report acc R.Memo_soundness site
      "memo over a segment containing a state read: skipping it would freeze a value that \
       must be read live at execution time";
  let in_regs, out_regs = P.block_io b.instrs in
  List.iteri
    (fun mi (m : P.memo) ->
      let msite = Printf.sprintf "%s>memo#%d" site mi in
      if
        Array.length m.in_regs <> Array.length m.in_vals
        || Array.length m.out_regs <> Array.length m.out_vals
      then report acc R.Memo_soundness msite "in/out register and value arrays differ in length"
      else begin
        let io_ok = m.in_regs = in_regs && m.out_regs = out_regs in
        if m.in_regs <> in_regs then
          report acc R.Memo_soundness msite "memo in_regs %a differ from the segment's inputs %a"
            pp_regs m.in_regs pp_regs in_regs;
        if m.out_regs <> out_regs then
          report acc R.Memo_soundness msite
            "memo out_regs %a differ from the segment's definitions %a" pp_regs m.out_regs
            pp_regs out_regs;
        if
          Array.exists (fun r -> r < 0 || r >= reg_count) m.in_regs
          || Array.exists (fun r -> r < 0 || r >= reg_count) m.out_regs
        then
          report acc R.Reg_bounds msite "memo registers out of bounds (reg_count = %d)" reg_count
        else if io_ok && not has_read then begin
          match memo_replay_mismatch b.instrs m with
          | Some (r, got, want) ->
            report acc R.Memo_soundness msite
              "replaying the segment disagrees with the memo: v%d computes to %s but the \
               memo would commit %s (miscompiled executor or corrupted memo)"
              r (U256.to_hex got) (U256.to_hex want)
          | None -> ()
        end
      end)
    b.memos

let rec check_node acc ~reg_count prefix pos = function
  | P.Seq (b, k) ->
    check_block acc ~reg_count (Printf.sprintf "%s>seq#%d" prefix pos) b;
    check_node acc ~reg_count prefix (pos + 1) k
  | P.Branch (test, cases) ->
    let site = Printf.sprintf "%s>br#%d" prefix pos in
    (match test with
    | (P.Value (I.Reg r) | P.Size (I.Reg r)) when r < 0 || r >= reg_count ->
      report acc R.Reg_bounds site "branch operand v%d out of bounds (reg_count = %d)" r
        reg_count
    | P.Value _ | P.Size _ | P.Warm _ -> ());
    if cases = [] then
      report acc R.Well_formedness site
        "guard node with no cases: every execution would be a violation";
    let case_site v = Printf.sprintf "%s[%s]" site (D.case_label test v) in
    let rec dups = function
      | [] -> ()
      | (v, _) :: rest ->
        if List.exists (fun (v', _) -> U256.equal v v') rest then
          report acc R.Well_formedness (case_site v)
            "duplicate case: the second alternative is unreachable";
        dups rest
    in
    dups cases;
    List.iter (fun (v, sub) -> check_node acc ~reg_count (case_site v) (pos + 1) sub) cases
  | P.Leaf l ->
    List.iteri
      (fun fi b -> check_block acc ~reg_count (Printf.sprintf "%s>fast#%d" prefix fi) b)
      l.fast;
    List.iter (check_write_pieces acc (prefix ^ ">writes")) l.writes;
    List.iter (check_piece acc (prefix ^ ">output") "the output") l.output

(* ---- entry points ---- *)

let verify_path (p : I.path) : R.violation list =
  Obs.incr obs_paths;
  let acc = { vs = [] } in
  let n = Array.length p.instrs in
  if p.first_fast < 0 || p.first_fast > n then
    report acc R.Rollback_freedom "path" "first_fast %d outside [0, %d]" p.first_fast n;
  if Array.length p.reg_values <> p.reg_count then
    report acc R.Well_formedness "path" "reg_values has %d entries for reg_count %d"
      (Array.length p.reg_values) p.reg_count;
  if Array.length p.inputs > p.reg_count then
    report acc R.Reg_bounds "path" "%d input registers exceed reg_count %d"
      (Array.length p.inputs) p.reg_count;
  Array.iteri (fun i ins -> check_instr_pieces acc (Printf.sprintf "i#%d" i) ins) p.instrs;
  List.iter (check_write_pieces acc "writes") p.writes;
  List.iter (check_piece acc "output" "the output") p.output;
  check_line acc ~reg_count:p.reg_count ~n_inputs:(Array.length p.inputs) ~node_guards:false
    (D.of_path p);
  finalize acc

let verify ?max_paths (ap : P.t) : R.violation list =
  Obs.incr obs_programs;
  let acc = { vs = [] } in
  if ap.reg_count < 0 then
    report acc R.Well_formedness "program" "negative reg_count %d" ap.reg_count;
  if Array.length ap.inputs > ap.reg_count then
    report acc R.Reg_bounds "program" "%d input registers exceed reg_count %d"
      (Array.length ap.inputs) ap.reg_count;
  Option.iter (check_node acc ~reg_count:ap.reg_count "root" 0) ap.root;
  let lines, _truncated = D.lines_of_program ?max_paths ap in
  List.iter
    (fun l ->
      Obs.incr obs_paths;
      check_line acc ~reg_count:ap.reg_count ~n_inputs:(Array.length ap.inputs)
        ~node_guards:true l)
    lines;
  finalize acc

let verify_exn ap = match verify ap with [] -> () | vs -> raise (Verification_failed vs)

let install_builder_hook () = P.add_path_hook := verify_exn
