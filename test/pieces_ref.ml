(* Reference piece materialization for the property in [Test_sevm]: the
   executor's earlier [Sevm.Ir.bytes_of_pieces], a growable [Buffer] fed
   each constant and a substring of each register's 32-byte encoding.
   The exact-size, in-place version must produce the same bytes. *)

module I = Sevm.Ir

let bytes_of_pieces regs pieces =
  let buf = Buffer.create 64 in
  List.iter
    (fun p ->
      match p with
      | I.P_const s -> Buffer.add_string buf s
      | I.P_reg (r, off, len) -> Buffer.add_substring buf (U256.to_bytes_be regs.(r)) off len)
    pieces;
  Buffer.contents buf
