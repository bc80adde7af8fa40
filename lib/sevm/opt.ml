(* Dead-code elimination and rollback-free scheduling (paper §4.3).

   Liveness flows backwards from three roots: guard operands (constraint
   section), the deferred write set, and the return-data pieces.  Anything
   unreachable is dead.  Instructions needed by any guard are scheduled
   before the guards that use them, in original order; everything else moves
   after the last guard into the fast path, so a constraint violation aborts
   with nothing to roll back. *)

module I = Ir

type scheduled = {
  instrs : I.instr array;
  first_fast : int;
  dead_removed : int;
}

(* liveness flags, one int per instruction *)
let constraint_live = 1
let fast_live = 2

let schedule (arr : I.instr array) n ~reg_count (writes : I.write list) (output : I.piece list)
    =
  let def_of = Array.make reg_count (-1) in
  let live = Array.make n 0 in
  (* mark [r]'s defining instruction and its dependencies with [flag] *)
  let rec mark flag r =
    let d = def_of.(r) in
    if d >= 0 && live.(d) land flag = 0 then begin
      live.(d) <- live.(d) lor flag;
      I.iter_uses (if flag = constraint_live then mark_constraint else mark_fast) arr.(d)
    end
  and mark_constraint r = mark constraint_live r
  and mark_fast r = mark fast_live r in
  (* one forward pass: a guard's operands are defined before it, so its
     dependencies can be marked as soon as it is reached *)
  for i = 0 to n - 1 do
    let ins = arr.(i) in
    match ins with
    | I.Compute (r, _, _) | I.Keccak (r, _) | I.Sha256 (r, _) | I.Pack (r, _) | I.Read (r, _) ->
      def_of.(r) <- i
    | I.Guard _ | I.Guard_size _ | I.Guard_warm _ ->
      live.(i) <- constraint_live;
      I.iter_uses mark_constraint ins
  done;
  (* fast-path roots: writes and output *)
  List.iter (I.iter_write_uses mark_fast) writes;
  I.iter_pieces mark_fast output;
  (* partition, preserving order: constraint section, then fast path *)
  let n_constraint = ref 0 and n_fast = ref 0 in
  for i = 0 to n - 1 do
    let l = live.(i) in
    if l land constraint_live <> 0 then incr n_constraint
    else if l <> 0 then incr n_fast
  done;
  let first_fast = !n_constraint in
  let len = first_fast + !n_fast in
  let out = if len = 0 then [||] else Array.make len arr.(0) in
  let c = ref 0 and f = ref first_fast in
  for i = 0 to n - 1 do
    let l = live.(i) in
    if l land constraint_live <> 0 then begin
      out.(!c) <- arr.(i);
      incr c
    end
    else if l <> 0 then begin
      out.(!f) <- arr.(i);
      incr f
    end
  done;
  { instrs = out; first_fast; dead_removed = n - len }
