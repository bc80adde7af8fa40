(* Accelerated Programs (paper §4.3-4.4).

   An AP is a DAG of straight-line blocks joined by guard nodes.  Each guard
   node both checks a constraint and case-branches between the constraint
   sets of the merged pre-executions, so executing an AP merged from N
   futures costs the same as executing one: every path merges into the one
   tree, and a path that will not merge is dropped.  Blocks carry
   memoization shortcuts: remembered (input values -> output values) pairs
   from each pre-execution, letting whole segments be skipped when the
   context repeats.

   Register numbering is shared: paths synthesized from the same transaction
   agree on register ids for their common prefix (the builder is
   deterministic), and registers of divergent suffixes live in disjoint
   parts of the register file. *)

module I = Sevm.Ir

type memo = {
  in_regs : int array;
  in_vals : U256.t array;
  out_regs : int array;
  out_vals : U256.t array;
}

type block = {
  instrs : I.instr array; (* Compute/Keccak/Pack/Read only *)
  memos : memo list;
}

type leaf = {
  fast : block list;
  writes : I.write list;
  status : Evm.Processor.status;
  gas_used : int;
  gas_used_src : I.operand option;
      (* template paths: register holding the served receipt's gas_used
         (the constant above is the traced value only) *)
  gas_refund : int; (* raw refund counter, surfaced into the receipt *)
  output : I.piece list;
}

(* What a guard node tests; its case keys are the operand's value, the
   operand's byte size (EXP gas) or 1/0 for warm/cold on entry. *)
type test =
  | Value of I.operand
  | Size of I.operand
  | Warm of (State.Address.t * U256.t option)

type node =
  | Seq of block * node
  | Branch of test * (U256.t * node) list
  | Leaf of leaf

type t = {
  mutable root : node option; (* the merged tree; None while empty *)
  mutable reg_count : int;
  mutable n_paths : int; (* distinct control/data paths merged *)
  mutable n_futures : int; (* pre-executions incorporated *)
  mutable shortcut_count : int;
  mutable fork : int; (* spec id all merged paths were built under; -1 = empty *)
  mutable inputs : I.input_src array;
      (* template input registers shared by every merged path; [||] for
         ordinary per-transaction programs *)
}

let max_memo_alternatives = 4
let min_block_for_memo = 2

(* ---- block construction ---- *)

(* Registers read by [instrs] but defined before them, and registers
   defined within. *)
let block_io instrs =
  let defined = Hashtbl.create 8 in
  let inputs = ref [] in
  Array.iter
    (fun ins ->
      List.iter
        (fun r ->
          if not (Hashtbl.mem defined r) && not (List.mem r !inputs) then
            inputs := r :: !inputs)
        (I.instr_uses ins);
      match I.instr_def ins with Some r -> Hashtbl.replace defined r () | None -> ())
    instrs;
  let outputs = Hashtbl.fold (fun r () acc -> r :: acc) defined [] in
  (Array.of_list (List.rev !inputs), Array.of_list (List.sort compare outputs))

let memo_of instrs reg_values =
  let in_regs, out_regs = block_io instrs in
  {
    in_regs;
    in_vals = Array.map (fun r -> reg_values.(r)) in_regs;
    out_regs;
    out_vals = Array.map (fun r -> reg_values.(r)) out_regs;
  }

(* A block is worth memoizing when checking its inputs is cheaper than
   running it. *)
let worth_memoizing instrs in_regs =
  Array.length instrs >= min_block_for_memo && Array.length in_regs <= Array.length instrs

let make_block instrs reg_values =
  let in_regs, _ = block_io instrs in
  let memos =
    if worth_memoizing instrs in_regs then [ memo_of instrs reg_values ] else []
  in
  { instrs; memos }

(* Chop an instruction run into blocks: Reads always start a fresh block so
   segments between context reads get their own shortcuts (paper's
   m1..m5 structure). *)
let blocks_of_run instrs reg_values =
  let groups = ref [] in
  let current = ref [] in
  let flush () =
    if !current <> [] then begin
      groups := Array.of_list (List.rev !current) :: !groups;
      current := []
    end
  in
  List.iter
    (fun ins ->
      match ins with
      | I.Read _ ->
        flush ();
        groups := [| ins |] :: !groups
      | I.Compute _ | I.Keccak _ | I.Sha256 _ | I.Pack _ -> current := ins :: !current
      | I.Guard _ | I.Guard_size _ | I.Guard_warm _ -> assert false)
    instrs;
  flush ();
  List.rev_map (fun g -> make_block g reg_values) !groups

(* ---- path -> node chain ---- *)

(* An IR guard as a guard node's test and the case key it recorded. *)
let guard_case = function
  | I.Guard (op, v) -> Some (Value op, v)
  | I.Guard_size (op, n) -> Some (Size op, U256.of_int n)
  | I.Guard_warm (key, w) -> Some (Warm key, if w then U256.one else U256.zero)
  | I.Compute _ | I.Keccak _ | I.Sha256 _ | I.Pack _ | I.Read _ -> None

let of_path (p : I.path) : node =
  (* constraint section: runs of plain instrs separated by guards *)
  let rec build i pending =
    if i >= p.first_fast then begin
      let blocks = blocks_of_run (List.rev pending) p.reg_values in
      let fast_instrs = Array.to_list (Array.sub p.instrs p.first_fast (Array.length p.instrs - p.first_fast)) in
      let fast = blocks_of_run fast_instrs p.reg_values in
      let leaf =
        Leaf
          {
            fast;
            writes = p.writes;
            status = p.status;
            gas_used = p.gas_used;
            gas_used_src = p.gas_used_src;
            gas_refund = p.gas_refund;
            output = p.output;
          }
      in
      List.fold_right (fun b acc -> Seq (b, acc)) blocks leaf
    end
    else
      match guard_case p.instrs.(i) with
      | Some (test, v) ->
        let blocks = blocks_of_run (List.rev pending) p.reg_values in
        let rest = build (i + 1) [] in
        List.fold_right (fun b acc -> Seq (b, acc)) blocks (Branch (test, [ (v, rest) ]))
      | None -> build (i + 1) (p.instrs.(i) :: pending)
  in
  build 0 []

(* ---- merging ---- *)

let memo_equal a b = a.in_vals = b.in_vals && a.in_regs = b.in_regs

let merge_memos m1 m2 =
  let extra = List.filter (fun m -> not (List.exists (memo_equal m) m1)) m2 in
  let all = m1 @ extra in
  if List.length all > max_memo_alternatives then
    List.filteri (fun i _ -> i < max_memo_alternatives) all
  else all

let merge_block b1 b2 =
  if b1.instrs <> b2.instrs then None
  else Some { instrs = b1.instrs; memos = merge_memos b1.memos b2.memos }

let rec merge_node n1 n2 : node option =
  match (n1, n2) with
  | Seq (b1, k1), Seq (b2, k2) -> (
    match merge_block b1 b2 with
    | Some b -> ( match merge_node k1 k2 with Some k -> Some (Seq (b, k)) | None -> None)
    | None -> None)
  | Branch (t1, cases1), Branch (t2, cases2) when t1 = t2 ->
    Option.map (fun cases -> Branch (t1, cases)) (merge_cases cases1 cases2)
  | Leaf l1, Leaf l2 ->
    if
      l1.status = l2.status && l1.gas_used = l2.gas_used
      && l1.gas_used_src = l2.gas_used_src
      && l1.gas_refund = l2.gas_refund
      && l1.writes = l2.writes
      && l1.output = l2.output
    then begin
      let fast =
        if List.length l1.fast = List.length l2.fast then
          List.map2
            (fun b1 b2 -> match merge_block b1 b2 with Some b -> b | None -> b1)
            l1.fast l2.fast
        else l1.fast
      in
      Some (Leaf { l1 with fast })
    end
    else None
  | (Seq _ | Branch _ | Leaf _), _ -> None

(* Merge [cases2] into [cases1] key by key: a new key adds a case, and a key
   both hold must merge its subtrees, or the whole merge fails. *)
and merge_cases acc = function
  | [] -> Some acc
  | (v, sub) :: rest -> (
    match List.partition (fun (v', _) -> U256.equal v v') acc with
    | [], others -> merge_cases ((v, sub) :: others) rest
    | [ (_, sub') ], others -> (
      match merge_node sub' sub with
      | Some m -> merge_cases ((v, m) :: others) rest
      | None -> None)
    | _ :: _ :: _, _ -> None)

let rec count_shortcuts = function
  | Seq (b, k) -> List.length b.memos + count_shortcuts k
  | Branch (_, cases) -> List.fold_left (fun acc (_, n) -> acc + count_shortcuts n) 0 cases
  | Leaf l -> List.fold_left (fun acc b -> acc + List.length b.memos) 0 l.fast

let rec count_paths = function
  | Seq (_, k) -> count_paths k
  | Branch (_, cases) -> List.fold_left (fun acc (_, n) -> acc + count_paths n) 0 cases
  | Leaf _ -> 1

let create () =
  {
    root = None;
    reg_count = 0;
    n_paths = 0;
    n_futures = 0;
    shortcut_count = 0;
    fork = -1;
    inputs = [||];
  }

let obs_paths_dropped = Obs.counter "ap.paths_dropped"

(* Post-add self-check hook: lib/analysis points this at the static
   verifier so every program the builder grows is checked as it is built
   (tests install a raising variant, the bench CLI a counting one).
   Default: no-op. *)
let add_path_hook : (t -> unit) ref = ref (fun _ -> ())

(* Incorporate one more synthesized path (from one more pre-execution)
   by merging it into the tree, or drop it and count the drop.  An AP is
   per-fork: the first path fixes [ap.fork] and [ap.inputs], and a path
   built under any other spec or inputs is dropped — the executor rejects
   cross-fork runs outright, so merging them could only produce dead
   branches.  Nor does a path merge whose instruction stream disagrees
   with the tree before their first common guard, or whose guards all take
   existing cases but whose blocks or effects below them differ. *)
let add_path ap (p : I.path) =
  if Option.is_none ap.root then begin
    ap.fork <- p.fork;
    ap.inputs <- p.inputs
  end;
  let merged =
    if p.fork <> ap.fork || p.inputs <> ap.inputs then None
    else
      match ap.root with
      | None -> Some (of_path p)
      | Some root -> merge_node root (of_path p)
  in
  match merged with
  | None -> Obs.incr obs_paths_dropped
  | Some root ->
    ap.root <- Some root;
    ap.n_futures <- ap.n_futures + 1;
    ap.reg_count <- max ap.reg_count p.reg_count;
    ap.n_paths <- count_paths root;
    ap.shortcut_count <- count_shortcuts root;
    !add_path_hook ap

(* Structural digest.  Every constituent type (instrs, operands, pieces,
   writes, statuses, U256 int64 limbs) is pure data — no closures, no
   custom blocks beyond int64 — so marshalling with [No_sharing] yields
   identical bytes for structurally identical programs regardless of how
   physical sharing happened to arise during construction. *)
let fingerprint ap =
  Khash.Keccak.digest
    (Marshal.to_string
       (ap.root, ap.reg_count, ap.n_paths, ap.n_futures, ap.shortcut_count, ap.fork,
        ap.inputs)
       [ Marshal.No_sharing ])

let instr_count ap =
  let rec block_len b = Array.length b.instrs
  and node_len = function
    | Seq (b, k) -> block_len b + node_len k
    | Branch (_, cases) -> 1 + List.fold_left (fun acc (_, n) -> acc + node_len n) 0 cases
    | Leaf l -> List.fold_left (fun acc b -> acc + block_len b) 0 l.fast
  in
  match ap.root with Some root -> node_len root | None -> 0
