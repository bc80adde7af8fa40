(* Reference symbolic memory for the model check in [Test_sevm]: the
   builder's earlier representation, one hashtable entry per written byte
   holding a boxed source, unwritten bytes reading as constant zeros.
   [Sevm.Symmem] must agree with it on every slice, including slices that
   reach past the highest byte written. *)

type byte_src = B_const of char | B_reg of int * int

type t = (int, byte_src) Hashtbl.t

let create () : t = Hashtbl.create 64

let write_const_word (mem : t) off v =
  let bytes = U256.to_bytes_be v in
  for i = 0 to 31 do
    Hashtbl.replace mem (off + i) (B_const bytes.[i])
  done

let write_reg_word (mem : t) off r =
  for i = 0 to 31 do
    Hashtbl.replace mem (off + i) (B_reg (r, i))
  done

let write_byte (mem : t) off src = Hashtbl.replace mem off src

(* Pad-with-zeros slice of a source array (call data, return data). *)
let arr_slice (src : byte_src array) off len =
  Array.init len (fun i ->
      if off + i < Array.length src && off + i >= 0 then src.(off + i) else B_const '\000')

let write_bytes (mem : t) off (src : byte_src array) =
  Array.iteri (fun i v -> Hashtbl.replace mem (off + i) v) src

let blit mem ~dst src ~off ~len = write_bytes mem dst (arr_slice src off len)

let blit_string mem ~dst s ~off ~len =
  blit mem ~dst (Array.init (String.length s) (fun i -> B_const s.[i])) ~off ~len

let slice (mem : t) off len =
  Array.init len (fun i ->
      match Hashtbl.find_opt mem (off + i) with Some v -> v | None -> B_const '\000')

let high_water (mem : t) = Hashtbl.fold (fun i _ hw -> max hw (i + 1)) mem 0

(* The int encoding's meaning. *)
let of_src (s : Sevm.Symmem.src) =
  if Sevm.Symmem.is_const s then B_const (Sevm.Symmem.char_of s)
  else B_reg (Sevm.Symmem.reg_of s, Sevm.Symmem.byte_of s)

let to_src = function
  | B_const c -> Sevm.Symmem.of_char c
  | B_reg (r, i) -> Sevm.Symmem.of_reg r i
