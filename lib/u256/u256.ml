(* 256-bit words as four unsigned 64-bit limbs, least significant first.
   Wide intermediates (addmod/mulmod/div) use little-endian int64 arrays. *)

type t = { x0 : int64; x1 : int64; x2 : int64; x3 : int64 }

let zero = { x0 = 0L; x1 = 0L; x2 = 0L; x3 = 0L }
let one = { x0 = 1L; x1 = 0L; x2 = 0L; x3 = 0L }
let max_value = { x0 = -1L; x1 = -1L; x2 = -1L; x3 = -1L }
let of_limbs x0 x1 x2 x3 = { x0; x1; x2; x3 }
let to_limbs { x0; x1; x2; x3 } = (x0, x1, x2, x3)
let of_int64 x = { zero with x0 = x }

let of_int n =
  if n < 0 then invalid_arg "U256.of_int: negative"
  else { zero with x0 = Int64.of_int n }

let is_zero x = x.x0 = 0L && x.x1 = 0L && x.x2 = 0L && x.x3 = 0L
let equal a b = a.x0 = b.x0 && a.x1 = b.x1 && a.x2 = b.x2 && a.x3 = b.x3

let compare a b =
  let c = Int64.unsigned_compare a.x3 b.x3 in
  if c <> 0 then c
  else
    let c = Int64.unsigned_compare a.x2 b.x2 in
    if c <> 0 then c
    else
      let c = Int64.unsigned_compare a.x1 b.x1 in
      if c <> 0 then c else Int64.unsigned_compare a.x0 b.x0

let lt a b = compare a b < 0
let gt a b = compare a b > 0
let le a b = compare a b <= 0
let ge a b = compare a b >= 0
let negative x = Int64.compare x.x3 0L < 0

let slt a b =
  match (negative a, negative b) with
  | true, false -> true
  | false, true -> false
  | _ -> lt a b

let sgt a b = slt b a

let hash x =
  let h = Int64.to_int (Int64.logxor x.x0 (Int64.mul x.x2 0x9E3779B97F4A7C15L)) in
  (h lxor Int64.to_int (Int64.logxor x.x1 x.x3)) land max_int

let to_int_opt x =
  if x.x1 = 0L && x.x2 = 0L && x.x3 = 0L && Int64.compare x.x0 0L >= 0
     && Int64.compare x.x0 (Int64.of_int max_int) <= 0
  then Some (Int64.to_int x.x0)
  else None

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> invalid_arg "U256.to_int_exn: out of range"

(* [x + y] with carry-in [c] (0 or 1); returns (sum, carry-out). *)
let add_limb x y c =
  let s = Int64.add x y in
  let c1 = if Int64.unsigned_compare s x < 0 then 1L else 0L in
  let s2 = Int64.add s c in
  let c2 = if c <> 0L && s2 = 0L then 1L else 0L in
  (s2, Int64.logor c1 c2)

(* [x - y - b] with borrow [b] (0 or 1); returns (diff, borrow-out). *)
let sub_limb x y b =
  let d = Int64.sub x y in
  let b1 = if Int64.unsigned_compare x y < 0 then 1L else 0L in
  let d2 = Int64.sub d b in
  let b2 = if b <> 0L && d = 0L then 1L else 0L in
  (d2, Int64.logor b1 b2)

(* add/sub are the interpreter's hottest word ops; straight-line carry
   propagation keeps the int64 intermediates unboxed (the tupled
   [add_limb]/[sub_limb] helpers box every limb without flambda). *)
let add a b =
  let x0 = Int64.add a.x0 b.x0 in
  let c0 = if Int64.unsigned_compare x0 a.x0 < 0 then 1L else 0L in
  let s1 = Int64.add a.x1 b.x1 in
  let c1 =
    Int64.logor
      (if Int64.unsigned_compare s1 a.x1 < 0 then 1L else 0L)
      (if c0 <> 0L && Int64.add s1 c0 = 0L then 1L else 0L)
  in
  let x1 = Int64.add s1 c0 in
  let s2 = Int64.add a.x2 b.x2 in
  let c2 =
    Int64.logor
      (if Int64.unsigned_compare s2 a.x2 < 0 then 1L else 0L)
      (if c1 <> 0L && Int64.add s2 c1 = 0L then 1L else 0L)
  in
  let x2 = Int64.add s2 c1 in
  let x3 = Int64.add (Int64.add a.x3 b.x3) c2 in
  { x0; x1; x2; x3 }

let sub a b =
  let x0 = Int64.sub a.x0 b.x0 in
  let b0 = if Int64.unsigned_compare a.x0 b.x0 < 0 then 1L else 0L in
  let d1 = Int64.sub a.x1 b.x1 in
  let b1 =
    Int64.logor
      (if Int64.unsigned_compare a.x1 b.x1 < 0 then 1L else 0L)
      (if b0 <> 0L && d1 = 0L then 1L else 0L)
  in
  let x1 = Int64.sub d1 b0 in
  let d2 = Int64.sub a.x2 b.x2 in
  let b2 =
    Int64.logor
      (if Int64.unsigned_compare a.x2 b.x2 < 0 then 1L else 0L)
      (if b1 <> 0L && d2 = 0L then 1L else 0L)
  in
  let x2 = Int64.sub d2 b1 in
  let x3 = Int64.sub (Int64.sub a.x3 b.x3) b2 in
  { x0; x1; x2; x3 }

let lognot x =
  { x0 = Int64.lognot x.x0;
    x1 = Int64.lognot x.x1;
    x2 = Int64.lognot x.x2;
    x3 = Int64.lognot x.x3 }

let neg x = add (lognot x) one

let logand a b =
  { x0 = Int64.logand a.x0 b.x0;
    x1 = Int64.logand a.x1 b.x1;
    x2 = Int64.logand a.x2 b.x2;
    x3 = Int64.logand a.x3 b.x3 }

let logor a b =
  { x0 = Int64.logor a.x0 b.x0;
    x1 = Int64.logor a.x1 b.x1;
    x2 = Int64.logor a.x2 b.x2;
    x3 = Int64.logor a.x3 b.x3 }

let logxor a b =
  { x0 = Int64.logxor a.x0 b.x0;
    x1 = Int64.logxor a.x1 b.x1;
    x2 = Int64.logxor a.x2 b.x2;
    x3 = Int64.logxor a.x3 b.x3 }

(* Full 64x64 -> 128 multiply via 32-bit halves; returns (hi, lo). *)
let mul64 x y =
  let open Int64 in
  let mask = 0xFFFFFFFFL in
  let xl = logand x mask and xh = shift_right_logical x 32 in
  let yl = logand y mask and yh = shift_right_logical y 32 in
  let ll = mul xl yl in
  let lh = mul xl yh in
  let hl = mul xh yl in
  let hh = mul xh yh in
  let mid =
    add (add (shift_right_logical ll 32) (logand lh mask)) (logand hl mask)
  in
  let hi =
    add
      (add hh (add (shift_right_logical lh 32) (shift_right_logical hl 32)))
      (shift_right_logical mid 32)
  in
  (hi, mul x y)

let limb x = function 0 -> x.x0 | 1 -> x.x1 | 2 -> x.x2 | _ -> x.x3

(* Schoolbook multiply into an [n]-limb little-endian array. *)
let mul_into n a b =
  let r = Array.make n 0L in
  for i = 0 to 3 do
    let ai = limb a i in
    if ai <> 0L then begin
      let carry = ref 0L in
      for j = 0 to 3 do
        if i + j < n then begin
          let hi, lo = mul64 ai (limb b j) in
          let s1, c1 = add_limb r.(i + j) lo 0L in
          let s2, c2 = add_limb s1 !carry 0L in
          r.(i + j) <- s2;
          carry := Int64.add hi (Int64.add c1 c2)
        end
      done;
      let k = ref (i + 4) in
      while !carry <> 0L && !k < n do
        let s, c = add_limb r.(!k) !carry 0L in
        r.(!k) <- s;
        carry := c;
        incr k
      done
    end
  done;
  r

let mul a b =
  if a.x1 = 0L && a.x2 = 0L && a.x3 = 0L && b.x1 = 0L && b.x2 = 0L && b.x3 = 0L then begin
    (* one limb each, the common case (gas and length arithmetic): the
       128-bit product directly, without the schoolbook's limb array *)
    let hi, lo = mul64 a.x0 b.x0 in
    { x0 = lo; x1 = hi; x2 = 0L; x3 = 0L }
  end
  else
    let r = mul_into 4 a b in
    { x0 = r.(0); x1 = r.(1); x2 = r.(2); x3 = r.(3) }

(* ---- wide-array helpers (little-endian int64 limbs) ---- *)

let arr_bits a =
  let rec find i =
    if i < 0 then 0
    else if a.(i) = 0L then find (i - 1)
    else (i * 64) + 64 - Int64_clz.clz a.(i)
  in
  find (Array.length a - 1)

let arr_testbit a i = Int64.logand (Int64.shift_right_logical a.(i / 64) (i mod 64)) 1L = 1L

let arr_cmp a b =
  let rec go i =
    if i < 0 then 0
    else
      let c = Int64.unsigned_compare a.(i) b.(i) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a - 1)

let arr_sub_inplace a b =
  let borrow = ref 0L in
  for i = 0 to Array.length a - 1 do
    let d, br = sub_limb a.(i) b.(i) !borrow in
    a.(i) <- d;
    borrow := br
  done

(* r := (r << 1) | bit *)
let arr_shl1_or a bit =
  let carry = ref (if bit then 1L else 0L) in
  for i = 0 to Array.length a - 1 do
    let next = Int64.shift_right_logical a.(i) 63 in
    a.(i) <- Int64.logor (Int64.shift_left a.(i) 1) !carry;
    carry := next
  done

(* Restoring bitwise division: num / den over little-endian arrays of the
   same length.  Returns (quotient, remainder).  den must be non-zero. *)
let arr_divmod num den =
  let n = Array.length num in
  let q = Array.make n 0L in
  let r = Array.make n 0L in
  for i = arr_bits num - 1 downto 0 do
    arr_shl1_or r (arr_testbit num i);
    if arr_cmp r den >= 0 then begin
      arr_sub_inplace r den;
      q.(i / 64) <- Int64.logor q.(i / 64) (Int64.shift_left 1L (i mod 64))
    end
  done;
  (q, r)

let to_arr x = [| x.x0; x.x1; x.x2; x.x3 |]
let of_arr a = { x0 = a.(0); x1 = a.(1); x2 = a.(2); x3 = a.(3) }

let divmod a b =
  if is_zero b then (zero, zero)
  else if compare a b < 0 then (zero, a)
  else
    let q, r = arr_divmod (to_arr a) (to_arr b) in
    (of_arr q, of_arr r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let min_signed = { x0 = 0L; x1 = 0L; x2 = 0L; x3 = Int64.min_int }

let sdiv a b =
  if is_zero b then zero
  else if equal a min_signed && equal b max_value then min_signed
  else
    let sa = negative a and sb = negative b in
    let abs_a = if sa then neg a else a in
    let abs_b = if sb then neg b else b in
    let q = div abs_a abs_b in
    if sa <> sb then neg q else q

let srem a b =
  if is_zero b then zero
  else
    let sa = negative a in
    let abs_a = if sa then neg a else a in
    let abs_b = if negative b then neg b else b in
    let r = rem abs_a abs_b in
    if sa then neg r else r

let addmod x y m =
  if is_zero m then zero
  else begin
    (* 257-bit sum in a 5-limb array. *)
    let s = Array.make 5 0L in
    let l0, c = add_limb x.x0 y.x0 0L in
    let l1, c = add_limb x.x1 y.x1 c in
    let l2, c = add_limb x.x2 y.x2 c in
    let l3, c = add_limb x.x3 y.x3 c in
    s.(0) <- l0; s.(1) <- l1; s.(2) <- l2; s.(3) <- l3; s.(4) <- c;
    let d = Array.make 5 0L in
    Array.blit (to_arr m) 0 d 0 4;
    let _, r = arr_divmod s d in
    { x0 = r.(0); x1 = r.(1); x2 = r.(2); x3 = r.(3) }
  end

let mulmod x y m =
  if is_zero m then zero
  else begin
    let p = mul_into 8 x y in
    let d = Array.make 8 0L in
    Array.blit (to_arr m) 0 d 0 4;
    let _, r = arr_divmod p d in
    { x0 = r.(0); x1 = r.(1); x2 = r.(2); x3 = r.(3) }
  end

let bits x = arr_bits (to_arr x)
let byte_size x = (bits x + 7) / 8
let testbit x i = if i >= 256 || i < 0 then false else arr_testbit (to_arr x) i

let exp base e =
  let result = ref one in
  let b = ref base in
  let nbits = bits e in
  for i = 0 to nbits - 1 do
    if testbit e i then result := mul !result !b;
    if i < nbits - 1 then b := mul !b !b
  done;
  !result

let shift_left x n =
  if n <= 0 then if n = 0 then x else zero
  else if n >= 256 then zero
  else begin
    let a = to_arr x in
    let r = Array.make 4 0L in
    let limbs = n / 64 and off = n mod 64 in
    for i = 3 downto limbs do
      let lo = Int64.shift_left a.(i - limbs) off in
      let hi =
        if off = 0 || i - limbs - 1 < 0 then 0L
        else Int64.shift_right_logical a.(i - limbs - 1) (64 - off)
      in
      r.(i) <- Int64.logor lo hi
    done;
    of_arr r
  end

let shift_right x n =
  if n <= 0 then if n = 0 then x else zero
  else if n >= 256 then zero
  else begin
    let a = to_arr x in
    let r = Array.make 4 0L in
    let limbs = n / 64 and off = n mod 64 in
    for i = 0 to 3 - limbs do
      let lo = Int64.shift_right_logical a.(i + limbs) off in
      let hi =
        if off = 0 || i + limbs + 1 > 3 then 0L
        else Int64.shift_left a.(i + limbs + 1) (64 - off)
      in
      r.(i) <- Int64.logor lo hi
    done;
    of_arr r
  end

let shift_right_arith x n =
  if not (negative x) then shift_right x n
  else if n >= 256 then max_value
  else if n = 0 then x
  else
    (* Logical shift then set the vacated top bits. *)
    logor (shift_right x n) (shift_left max_value (256 - n))

let byte i x =
  match to_int_opt i with
  | Some k when k < 32 -> (* byte k from the big end = bits [248-8k .. 255-8k] *)
    let sh = (31 - k) * 8 in
    logand (shift_right x sh) (of_int 0xff)
  | _ -> zero

let signextend k x =
  match to_int_opt k with
  | Some b when b < 31 ->
    let sign_bit = (b * 8) + 7 in
    if testbit x sign_bit then logor x (shift_left max_value (sign_bit + 1))
    else logand x (lognot (shift_left max_value (sign_bit + 1)))
  | _ -> x

(* ---- conversions ---- *)

(* Limb [k] (0 least significant) of the word whose big-endian encoding
   ends at byte [e] of [s] and starts no earlier than [off]: zero when the
   limb lies wholly before [off], a partial limb when it straddles it. *)
let short_limb s off e k =
  let stop = e - (8 * k) in
  if stop <= off then 0L
  else if stop - off >= 8 then String.get_int64_be s (stop - 8)
  else begin
    (* at most 7 bytes: the value fits an OCaml int *)
    let v = ref 0 in
    for i = off to stop - 1 do
      v := (!v lsl 8) lor Char.code (String.unsafe_get s i)
    done;
    Int64.of_int !v
  end

let of_bytes_be ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if len < 0 || len > 32 || off < 0 || off + len > String.length s then
    invalid_arg "U256.of_bytes_be";
  if len = 32 then
    { x3 = String.get_int64_be s off;
      x2 = String.get_int64_be s (off + 8);
      x1 = String.get_int64_be s (off + 16);
      x0 = String.get_int64_be s (off + 24) }
  else begin
    (* a short input is right-aligned, read limb by limb in place *)
    let e = off + len in
    { x0 = short_limb s off e 0;
      x1 = short_limb s off e 1;
      x2 = short_limb s off e 2;
      x3 = short_limb s off e 3 }
  end

let to_bytes_be x =
  let b = Bytes.create 32 in
  Bytes.set_int64_be b 0 x.x3;
  Bytes.set_int64_be b 8 x.x2;
  Bytes.set_int64_be b 16 x.x1;
  Bytes.set_int64_be b 24 x.x0;
  Bytes.unsafe_to_string b

let blit_be x src_off dst dst_off len =
  if len < 0 || src_off < 0 || src_off + len > 32 || dst_off < 0
     || dst_off + len > Bytes.length dst
  then invalid_arg "U256.blit_be";
  if len = 32 then begin
    Bytes.set_int64_be dst dst_off x.x3;
    Bytes.set_int64_be dst (dst_off + 8) x.x2;
    Bytes.set_int64_be dst (dst_off + 16) x.x1;
    Bytes.set_int64_be dst (dst_off + 24) x.x0
  end
  else if src_off = 12 && len = 20 then begin
    (* the address window: the low 160 bits *)
    Bytes.set_int32_be dst dst_off (Int64.to_int32 x.x2);
    Bytes.set_int64_be dst (dst_off + 4) x.x1;
    Bytes.set_int64_be dst (dst_off + 12) x.x0
  end
  else
    for i = src_off to src_off + len - 1 do
      let limb = match i lsr 3 with 0 -> x.x3 | 1 -> x.x2 | 2 -> x.x1 | _ -> x.x0 in
      let b = Int64.to_int (Int64.shift_right_logical limb (8 * (7 - (i land 7)))) land 0xff in
      Bytes.unsafe_set dst (dst_off + i - src_off) (Char.unsafe_chr b)
    done

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "U256.of_hex: bad digit"

let of_hex s =
  let s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      String.sub s 2 (String.length s - 2)
    else s
  in
  let n = String.length s in
  if n = 0 || n > 64 then invalid_arg "U256.of_hex: bad length";
  let r = ref zero in
  for i = 0 to n - 1 do
    r := logor (shift_left !r 4) (of_int (hex_digit s.[i]))
  done;
  !r

let to_hex x =
  if is_zero x then "0x0"
  else begin
    let buf = Buffer.create 66 in
    Buffer.add_string buf "0x";
    let started = ref false in
    let digits = "0123456789abcdef" in
    for i = 63 downto 0 do
      let d = to_int_exn (logand (shift_right x (i * 4)) (of_int 0xf)) in
      if d <> 0 then started := true;
      if !started then Buffer.add_char buf digits.[d]
    done;
    Buffer.contents buf
  end

let ten = of_int 10

let of_decimal s =
  if String.length s = 0 then invalid_arg "U256.of_decimal: empty";
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
        let d = Char.code c - Char.code '0' in
        let r' = add (mul !r ten) (of_int d) in
        if lt r' !r then invalid_arg "U256.of_decimal: overflow";
        r := r'
      | '_' -> ()
      | _ -> invalid_arg "U256.of_decimal: bad digit")
    s;
  !r

let to_decimal x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 80 in
    let v = ref x in
    while not (is_zero !v) do
      let q, r = divmod !v ten in
      Buffer.add_char buf (Char.chr (Char.code '0' + to_int_exn r));
      v := q
    done;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end

let of_string s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then of_hex s
  else of_decimal s

let pp ppf x = if bits x <= 64 then Fmt.string ppf (to_decimal x) else Fmt.string ppf (to_hex x)
