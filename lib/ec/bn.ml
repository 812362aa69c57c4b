(** Portable fixed-radix arbitrary-precision natural numbers.

    Little-endian arrays of OCaml [int] limbs in base 2^26. 26-bit
    limbs let schoolbook multiplication accumulate 2^52-sized products
    in 63-bit native ints without overflow. Values are normalized (no
    high zero limbs); zero is the empty array.

    This module only implements what the curve and proof layers need:
    add/sub/mul/divmod/modexp and Barrett reduction contexts for the
    hot moduli (2^255-19 and the group order). No dependency on any
    external bignum library (none is available in this environment). *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type t = int array (* little-endian, normalized *)

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (n : int) : t =
  if n < 0 then invalid_arg "Bn.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land limb_mask) :: limbs (n lsr limb_bits) in
  Array.of_list (limbs n)

let one = of_int 1

let to_int_opt (a : t) : int option =
  (* Fits when < 2^62. *)
  if Array.length a > 3 then None
  else begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    Some !v
  end

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let num_bits (a : t) : int =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v = if v = 0 then 0 else 1 + width (v lsr 1) in
    ((n - 1) * limb_bits) + width top
  end

let testbit (a : t) (i : int) : bool =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let av = if i < la then a.(i) else 0 and bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  assert (!carry = 0);
  normalize out

(** [sub a b] requires [a >= b]. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Bn.sub: underflow";
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let av = a.(i) and bv = if i < lb then b.(i) else 0 in
    let s = av - bv - !borrow in
    if s < 0 then begin
      out.(i) <- s + (1 lsl limb_bits);
      borrow := 1
    end
    else begin
      out.(i) <- s;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Bn.sub: underflow";
  normalize out

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      (* Propagate the final carry; it may span several limbs. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left_bits (a : t) (bits : int) : t =
  if is_zero a then zero
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land limb_mask);
      out.(i + limb_shift + 1) <- out.(i + limb_shift + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

let shift_right_bits (a : t) (bits : int) : t =
  let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
  let la = Array.length a in
  if limb_shift >= la then zero
  else begin
    let n = la - limb_shift in
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      let lo = a.(i + limb_shift) lsr bit_shift in
      let hi =
        if bit_shift = 0 || i + limb_shift + 1 >= la then 0
        else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
      in
      out.(i) <- lo lor hi
    done;
    normalize out
  end

(** Binary long division; O(bits * limbs). Used only in cold paths
    (Barrett precomputation, canonical constants). *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let shift = num_bits a - num_bits b in
    let q = Array.make ((shift / limb_bits) + 1) 0 in
    let r = ref a in
    for i = shift downto 0 do
      let d = shift_left_bits b i in
      if compare !r d >= 0 then begin
        r := sub !r d;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize q, !r)
  end

let rem a b = snd (divmod a b)

(* --- Byte and hex conversions (little-endian bytes, big-endian hex) --- *)

let of_bytes_le (s : string) : t =
  let nbits = 8 * String.length s in
  let nlimbs = ((nbits + limb_bits - 1) / limb_bits) + 1 in
  let out = Array.make nlimbs 0 in
  for i = 0 to String.length s - 1 do
    let byte = Char.code s.[i] in
    let bit = 8 * i in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    out.(limb) <- out.(limb) lor ((byte lsl off) land limb_mask);
    if off > limb_bits - 8 then out.(limb + 1) <- out.(limb + 1) lor (byte lsr (limb_bits - off))
  done;
  normalize out

(* Byte i is bits [8i, 8i+8): the tail of one 26-bit limb, topped up
   from the next when it straddles a limb boundary. *)
let to_bytes_le (a : t) ~(len : int) : string =
  if num_bits a > 8 * len then invalid_arg "Bn.to_bytes_le: does not fit";
  let n = Array.length a in
  let limb k = if k < n then a.(k) else 0 in
  String.init len (fun i ->
      let bit = 8 * i in
      let k = bit / limb_bits and off = bit mod limb_bits in
      Char.chr (((limb k lsr off) lor (limb (k + 1) lsl (limb_bits - off))) land 0xff))

let of_hex (s : string) : t =
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  let bytes = Monet_util.Hex.decode s in
  (* hex is big-endian; reverse into little-endian bytes *)
  let n = String.length bytes in
  of_bytes_le (String.init n (fun i -> bytes.[n - 1 - i]))

let to_hex (a : t) : string =
  let len = max 1 ((num_bits a + 7) / 8) in
  let le = to_bytes_le a ~len in
  let be = String.init len (fun i -> le.[len - 1 - i]) in
  let h = Monet_util.Hex.encode be in
  (* strip leading zeros but keep at least one digit *)
  let i = ref 0 in
  while !i < String.length h - 1 && h.[!i] = '0' do
    incr i
  done;
  String.sub h !i (String.length h - !i)

let pp ppf a = Format.pp_print_string ppf (to_hex a)

(* --- Barrett reduction context for a fixed modulus --- *)

module Barrett = struct
  type ctx = { m : t; mu : t; k : int (* limbs of m *) }

  let create (m : t) : ctx =
    if is_zero m then raise Division_by_zero;
    let k = Array.length m in
    let b2k = shift_left_bits one (2 * k * limb_bits) in
    let mu = fst (divmod b2k m) in
    { m; mu; k }

  (** [reduce ctx x] = x mod m, for x < b^(2k) (i.e. any product of two
      reduced values). *)
  let reduce (ctx : ctx) (x : t) : t =
    if compare x ctx.m < 0 then x
    else begin
      let k = ctx.k in
      let q1 = shift_right_bits x ((k - 1) * limb_bits) in
      let q2 = mul q1 ctx.mu in
      let q3 = shift_right_bits q2 ((k + 1) * limb_bits) in
      let r1 = x in
      let r2 = mul q3 ctx.m in
      (* r = x - q3*m; by Barrett's bound 0 <= r < 3m *)
      let r = if compare r1 r2 >= 0 then sub r1 r2 else failwith "Barrett: negative" in
      let r = if compare r ctx.m >= 0 then sub r ctx.m else r in
      let r = if compare r ctx.m >= 0 then sub r ctx.m else r in
      if compare r ctx.m >= 0 then rem r ctx.m else r
    end

  let mul_mod ctx a b = reduce ctx (mul a b)

  let pow_mod (ctx : ctx) (base : t) (e : t) : t =
    let n = num_bits e in
    let acc = ref (rem one ctx.m) in
    let b = ref (reduce ctx base) in
    for i = 0 to n - 1 do
      if testbit e i then acc := mul_mod ctx !acc !b;
      if i < n - 1 then b := mul_mod ctx !b !b
    done;
    !acc
end
