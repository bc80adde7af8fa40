(* Dataflow substrate: linear views over S-EVM paths and AP DAGs.

   The verifier's per-path checkers (def-before-use, schedule conformance,
   guard coverage, memo liveness) are written once against [line] and fed
   either the instruction stream of a synthesized path or each root→leaf
   enumeration of a compiled program.  Site trails are baked into the steps
   while enumerating, so violations always report the path through the DAG
   that exhibits them. *)

module I = Sevm.Ir
module P = Ap.Program

type step = S_instr of I.instr | S_guard of I.operand * string

type memo_site = { m_site : string; m_block : P.block; m_end : int }

type line = {
  origin : string;
  steps : (string * step) array;
  first_fast : int;
  writes : I.write list;
  writes_site : string;
  output : I.piece list;
  output_site : string;
  memo_sites : memo_site list;
}

let step_uses = function
  | S_instr ins -> I.instr_uses ins
  | S_guard (op, _) -> I.operand_regs op

let step_def = function S_instr ins -> I.instr_def ins | S_guard _ -> None

let pp_step ppf = function
  | S_instr ins -> I.pp_instr ppf ins
  | S_guard (op, c) -> Fmt.pf ppf "GUARD(%a %s)" I.pp_operand op c

(* Warmth guards carry no register operand (keys are concrete); for the
   linear view they become an S_guard over the constant account word with
   the constraint in the description, so every per-line checker treats
   them like any other guard step. *)
let warm_step_of a ko w =
  let desc =
    match ko with
    | None -> Printf.sprintf "entry-warm == %b" w
    | Some k -> Printf.sprintf "entry-warm[%s] == %b" (U256.to_hex k) w
  in
  S_guard (I.Const (State.Address.to_u256 a), desc)

let warm_of_key v = not (U256.is_zero v)

let case_label (test : P.test) v =
  match test with
  | P.Value _ -> "=" ^ U256.to_hex v
  | P.Size _ -> "size=" ^ U256.to_decimal v
  | P.Warm _ -> Printf.sprintf "warm=%b" (warm_of_key v)

(* A guard node's case as the step a line takes through it. *)
let guard_step (test : P.test) v =
  match test with
  | P.Value op -> S_guard (op, "== " ^ U256.to_hex v)
  | P.Size op -> S_guard (op, "bytesize == " ^ U256.to_decimal v)
  | P.Warm (a, ko) -> warm_step_of a ko (warm_of_key v)

let mutable_read_src = function
  | I.R_storage _ | I.R_storage_dyn _ | I.R_balance _ | I.R_nonce _ | I.R_nonce_of _
  | I.R_blockhash _ | I.R_extcodesize _ | I.R_extcodehash _ -> true
  | I.R_timestamp | I.R_number | I.R_coinbase | I.R_difficulty | I.R_gaslimit -> false

let of_path (p : I.path) : line =
  let steps =
    Array.mapi
      (fun i ins ->
        let site = Printf.sprintf "i#%d" i in
        match ins with
        | I.Guard (op, v) -> (site, S_guard (op, "== " ^ U256.to_hex v))
        | I.Guard_size (op, n) -> (site, S_guard (op, Printf.sprintf "bytesize == %d" n))
        | I.Guard_warm ((a, ko), w) -> (site, warm_step_of a ko w)
        | I.Compute _ | I.Keccak _ | I.Sha256 _ | I.Pack _ | I.Read _ -> (site, S_instr ins))
      p.instrs
  in
  {
    origin = "path";
    steps;
    first_fast = p.first_fast;
    writes = p.writes;
    writes_site = "writes";
    output = p.output;
    output_site = "output";
    memo_sites = [];
  }

(* Enumerate root→leaf paths.  Steps accumulate as a reversed list with an
   explicit count (the count doubles as "index of the next step", which is
   what memo sites and [first_fast] need). *)
let lines_of_program ?(max_paths = 4096) (ap : P.t) : line list * bool =
  let acc = ref [] in
  let n = ref 0 in
  let truncated = ref false in
  let block_steps site (b : P.block) rev_steps count =
    let rs = ref rev_steps and c = ref count in
    Array.iteri
      (fun j ins ->
        rs := (Printf.sprintf "%s>i#%d" site j, S_instr ins) :: !rs;
        incr c)
      b.instrs;
    (!rs, !c)
  in
  let rec go prefix pos rev_steps count memos node =
    if !n >= max_paths then truncated := true
    else
      match node with
      | P.Seq (b, k) ->
        let site = Printf.sprintf "%s>seq#%d" prefix pos in
        let rev_steps, count' = block_steps site b rev_steps count in
        let memos =
          if b.memos = [] then memos
          else { m_site = site; m_block = b; m_end = count' } :: memos
        in
        go prefix (pos + 1) rev_steps count' memos k
      | P.Branch (test, cases) ->
        List.iter
          (fun (v, sub) ->
            let site = Printf.sprintf "%s>br#%d" prefix pos in
            go
              (Printf.sprintf "%s[%s]" site (case_label test v))
              (pos + 1)
              ((site, guard_step test v) :: rev_steps)
              (count + 1) memos sub)
          cases
      | P.Leaf l ->
        incr n;
        let first_fast = count in
        let rs = ref rev_steps and c = ref count and ms = ref memos in
        List.iteri
          (fun fi (b : P.block) ->
            let site = Printf.sprintf "%s>fast#%d" prefix fi in
            let rs', c' = block_steps site b !rs !c in
            rs := rs';
            c := c';
            if b.memos <> [] then ms := { m_site = site; m_block = b; m_end = !c } :: !ms)
          l.fast;
        acc :=
          {
            origin = prefix;
            steps = Array.of_list (List.rev !rs);
            first_fast;
            writes = l.writes;
            writes_site = prefix ^ ">writes";
            output = l.output;
            output_site = prefix ^ ">output";
            memo_sites = List.rev !ms;
          }
          :: !acc
  in
  Option.iter (go "root" 0 [] 0 []) ap.root;
  (List.rev !acc, !truncated)
