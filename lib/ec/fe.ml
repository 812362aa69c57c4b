(** The ed25519 base field GF(2^255 - 19) as fixed ten-limb
    radix-2^25.5 field elements ("donna"/ref10 style) over native
    63-bit OCaml ints.

    Limb [i] carries bits [⌈25.5·i⌉, ⌈25.5·(i+1)⌉): even limbs are 26
    bits wide, odd limbs 25. Limbs are *signed* and values are kept
    loosely reduced: every add/sub/mul/sq ends in a carry sweep that
    bounds even limbs by ~2^25 and odd limbs by ~2^24 in magnitude, so
    each of the ten product terms of {!mul} stays below 2^59 — far from
    the ±2^62 native-int edge. Reduction is lazy: values are only
    canonicalized mod p by {!to_bytes_le} (and everything derived from
    it: {!equal}, {!is_odd}, {!to_bn}).

    Conversions to/from {!Bn.t} exist solely at the module boundary
    (constants, DRBG sampling, hex); no arithmetic in here ever
    allocates a [Bn.t]. The two fixed exponentiations the curve needs
    ({!inv} and the square-root exponent {!pow22523}) are addition
    chains, not ladders over a [Bn] exponent.

    The previous [Bn]-backed implementation survives as {!Fe_ref} and
    is differentially tested against this one in test/test_ec.ml. *)

type t = int array (* exactly 10 limbs, little-endian *)

(* EC-op provenance (DESIGN.md §3.8): one branch per call while the
   registry is off, proven unmeasurable by the @bench-smoke guard. *)
let m_mul = Monet_obs.Metrics.counter "ec.fe_mul"
let m_sq = Monet_obs.Metrics.counter "ec.fe_sq"

let p : Bn.t =
  Bn.of_hex "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed"

let zero : t = Array.make 10 0
let one : t = [| 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]
let bytes_len = 32

(* Carry sweep (ref10 order): after it, |h0| ≤ 2^25, |h_odd| ≤ 2^24+1,
   |h_even| ≤ 2^25, and the top carry has been folded back into h0 via
   2^255 ≡ 19. Rounding biases make [asr] behave as a nearest-integer
   division, so limbs end up centred around 0. *)
let carry_into (d : t) h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 : unit =
  let b26 = 1 lsl 25 and b25 = 1 lsl 24 in
  let c = (h0 + b26) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  let c = (h4 + b26) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h1 + b25) asr 25 in
  let h2 = h2 + c and h1 = h1 - (c lsl 25) in
  let c = (h5 + b25) asr 25 in
  let h6 = h6 + c and h5 = h5 - (c lsl 25) in
  let c = (h2 + b26) asr 26 in
  let h3 = h3 + c and h2 = h2 - (c lsl 26) in
  let c = (h6 + b26) asr 26 in
  let h7 = h7 + c and h6 = h6 - (c lsl 26) in
  let c = (h3 + b25) asr 25 in
  let h4 = h4 + c and h3 = h3 - (c lsl 25) in
  let c = (h7 + b25) asr 25 in
  let h8 = h8 + c and h7 = h7 - (c lsl 25) in
  let c = (h4 + b26) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h8 + b26) asr 26 in
  let h9 = h9 + c and h8 = h8 - (c lsl 26) in
  let c = (h9 + b25) asr 25 in
  let h0 = h0 + (19 * c) and h9 = h9 - (c lsl 25) in
  let c = (h0 + b26) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  Array.unsafe_set d 0 h0;
  Array.unsafe_set d 1 h1;
  Array.unsafe_set d 2 h2;
  Array.unsafe_set d 3 h3;
  Array.unsafe_set d 4 h4;
  Array.unsafe_set d 5 h5;
  Array.unsafe_set d 6 h6;
  Array.unsafe_set d 7 h7;
  Array.unsafe_set d 8 h8;
  Array.unsafe_set d 9 h9

let carry_make h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 : t =
  let d = Array.make 10 0 in
  carry_into d h0 h1 h2 h3 h4 h5 h6 h7 h8 h9;
  d

(* --- In-place variants ----------------------------------------------
   The [_into] operations write their (carried, loosely-reduced)
   result into a caller-owned buffer instead of allocating: the MSM
   inner loops ({!Point.msm}) run thousands of additions per call, and
   the ~13 ten-word arrays a fresh-allocation formula produces per
   point addition are pure GC churn there. The destination may alias
   an operand — every limb is read before anything is written. *)

let alloc () : t = Array.make 10 0
let copy (a : t) : t = Array.copy a
let copy_into (d : t) (a : t) : unit = Array.blit a 0 d 0 10

let add_into (d : t) (a : t) (b : t) : unit =
  let ga = Array.unsafe_get a and gb = Array.unsafe_get b in
  carry_into d
    (ga 0 + gb 0) (ga 1 + gb 1) (ga 2 + gb 2) (ga 3 + gb 3) (ga 4 + gb 4)
    (ga 5 + gb 5) (ga 6 + gb 6) (ga 7 + gb 7) (ga 8 + gb 8) (ga 9 + gb 9)

let sub_into (d : t) (a : t) (b : t) : unit =
  let ga = Array.unsafe_get a and gb = Array.unsafe_get b in
  carry_into d
    (ga 0 - gb 0) (ga 1 - gb 1) (ga 2 - gb 2) (ga 3 - gb 3) (ga 4 - gb 4)
    (ga 5 - gb 5) (ga 6 - gb 6) (ga 7 - gb 7) (ga 8 - gb 8) (ga 9 - gb 9)

let neg_into (d : t) (a : t) : unit =
  for i = 0 to 9 do
    Array.unsafe_set d i (- Array.unsafe_get a i)
  done

let add (a : t) (b : t) : t =
  let d = alloc () in
  add_into d a b;
  d

let sub (a : t) (b : t) : t =
  let d = alloc () in
  sub_into d a b;
  d

(* Limb-wise negation preserves the loose-reduction bounds. *)
let neg (a : t) : t = Array.map (fun x -> -x) a

(* Schoolbook 10x10 with the wrap 2^255 ≡ 19 folded into the
   coefficients: a term f_i·g_j with i+j ≥ 10 picks up a 19, and one
   with i, j both odd a 2 (the radix-2^25.5 exponent ⌈25.5i⌉+⌈25.5j⌉
   overshoots ⌈25.5(i+j)⌉ by one exactly then). Straight-line ref10
   row order; every sum is ≤ 10·2^59 in magnitude. *)
let mul_into (d : t) (f : t) (g : t) : unit =
  Monet_obs.Metrics.bump m_mul;
  let f0 = Array.unsafe_get f 0 and f1 = Array.unsafe_get f 1
  and f2 = Array.unsafe_get f 2 and f3 = Array.unsafe_get f 3
  and f4 = Array.unsafe_get f 4 and f5 = Array.unsafe_get f 5
  and f6 = Array.unsafe_get f 6 and f7 = Array.unsafe_get f 7
  and f8 = Array.unsafe_get f 8 and f9 = Array.unsafe_get f 9 in
  let g0 = Array.unsafe_get g 0 and g1 = Array.unsafe_get g 1
  and g2 = Array.unsafe_get g 2 and g3 = Array.unsafe_get g 3
  and g4 = Array.unsafe_get g 4 and g5 = Array.unsafe_get g 5
  and g6 = Array.unsafe_get g 6 and g7 = Array.unsafe_get g 7
  and g8 = Array.unsafe_get g 8 and g9 = Array.unsafe_get g 9 in
  let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3
  and g4_19 = 19 * g4 and g5_19 = 19 * g5 and g6_19 = 19 * g6
  and g7_19 = 19 * g7 and g8_19 = 19 * g8 and g9_19 = 19 * g9 in
  let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5 and f7_2 = 2 * f7
  and f9_2 = 2 * f9 in
  let h0 =
    (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19) + (f4 * g6_19)
    + (f5_2 * g5_19) + (f6 * g4_19) + (f7_2 * g3_19) + (f8 * g2_19)
    + (f9_2 * g1_19)
  and h1 =
    (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19)
    + (f5 * g6_19) + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19) + (f9 * g2_19)
  and h2 =
    (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19)
    + (f5_2 * g7_19) + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19)
    + (f9_2 * g3_19)
  and h3 =
    (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19) + (f5 * g8_19)
    + (f6 * g7_19) + (f7 * g6_19) + (f8 * g5_19) + (f9 * g4_19)
  and h4 =
    (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0)
    + (f5_2 * g9_19) + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19)
    + (f9_2 * g5_19)
  and h5 =
    (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0)
    + (f6 * g9_19) + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19)
  and h6 =
    (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2) + (f5_2 * g1)
    + (f6 * g0) + (f7_2 * g9_19) + (f8 * g8_19) + (f9_2 * g7_19)
  and h7 =
    (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2)
    + (f6 * g1) + (f7 * g0) + (f8 * g9_19) + (f9 * g8_19)
  and h8 =
    (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4) + (f5_2 * g3)
    + (f6 * g2) + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19)
  and h9 =
    (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4)
    + (f6 * g3) + (f7 * g2) + (f8 * g1) + (f9 * g0)
  in
  (* Carry chain inlined: without flambda the 10-argument call to
     [carry_make] costs real time on this, the hottest path. *)
  let b26 = 1 lsl 25 and b25 = 1 lsl 24 in
  let c = (h0 + b26) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  let c = (h4 + b26) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h1 + b25) asr 25 in
  let h2 = h2 + c and h1 = h1 - (c lsl 25) in
  let c = (h5 + b25) asr 25 in
  let h6 = h6 + c and h5 = h5 - (c lsl 25) in
  let c = (h2 + b26) asr 26 in
  let h3 = h3 + c and h2 = h2 - (c lsl 26) in
  let c = (h6 + b26) asr 26 in
  let h7 = h7 + c and h6 = h6 - (c lsl 26) in
  let c = (h3 + b25) asr 25 in
  let h4 = h4 + c and h3 = h3 - (c lsl 25) in
  let c = (h7 + b25) asr 25 in
  let h8 = h8 + c and h7 = h7 - (c lsl 25) in
  let c = (h4 + b26) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h8 + b26) asr 26 in
  let h9 = h9 + c and h8 = h8 - (c lsl 26) in
  let c = (h9 + b25) asr 25 in
  let h0 = h0 + (19 * c) and h9 = h9 - (c lsl 25) in
  let c = (h0 + b26) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  Array.unsafe_set d 0 h0;
  Array.unsafe_set d 1 h1;
  Array.unsafe_set d 2 h2;
  Array.unsafe_set d 3 h3;
  Array.unsafe_set d 4 h4;
  Array.unsafe_set d 5 h5;
  Array.unsafe_set d 6 h6;
  Array.unsafe_set d 7 h7;
  Array.unsafe_set d 8 h8;
  Array.unsafe_set d 9 h9

let mul (f : t) (g : t) : t =
  let d = Array.make 10 0 in
  mul_into d f g;
  d

(* Dedicated squaring: the symmetric terms merge, ~half the limb
   products of [mul]. *)
let sq_into (d : t) (f : t) : unit =
  Monet_obs.Metrics.bump m_sq;
  let f0 = Array.unsafe_get f 0 and f1 = Array.unsafe_get f 1
  and f2 = Array.unsafe_get f 2 and f3 = Array.unsafe_get f 3
  and f4 = Array.unsafe_get f 4 and f5 = Array.unsafe_get f 5
  and f6 = Array.unsafe_get f 6 and f7 = Array.unsafe_get f 7
  and f8 = Array.unsafe_get f 8 and f9 = Array.unsafe_get f 9 in
  let f0_2 = 2 * f0 and f1_2 = 2 * f1 and f2_2 = 2 * f2 and f3_2 = 2 * f3
  and f4_2 = 2 * f4 and f5_2 = 2 * f5 and f6_2 = 2 * f6 and f7_2 = 2 * f7 in
  let f5_38 = 38 * f5 and f6_19 = 19 * f6 and f7_38 = 38 * f7
  and f8_19 = 19 * f8 and f9_38 = 38 * f9 in
  let h0 =
    (f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38)
    + (f4_2 * f6_19) + (f5 * f5_38)
  and h1 =
    (f0_2 * f1) + (f2 * f9_38) + (f3_2 * f8_19) + (f4 * f7_38) + (f5_2 * f6_19)
  and h2 =
    (f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19)
    + (f5_2 * f7_38) + (f6 * f6_19)
  and h3 =
    (f0_2 * f3) + (f1_2 * f2) + (f4 * f9_38) + (f5_2 * f8_19) + (f6 * f7_38)
  and h4 =
    (f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38) + (f6_2 * f8_19)
    + (f7 * f7_38)
  and h5 =
    (f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6 * f9_38) + (f7_2 * f8_19)
  and h6 =
    (f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38)
    + (f8 * f8_19)
  and h7 =
    (f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8 * f9_38)
  and h8 =
    (f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4)
    + (f9 * f9_38)
  and h9 = (f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5)
  in
  (* Same inlined carry chain as [mul]. *)
  let b26 = 1 lsl 25 and b25 = 1 lsl 24 in
  let c = (h0 + b26) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  let c = (h4 + b26) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h1 + b25) asr 25 in
  let h2 = h2 + c and h1 = h1 - (c lsl 25) in
  let c = (h5 + b25) asr 25 in
  let h6 = h6 + c and h5 = h5 - (c lsl 25) in
  let c = (h2 + b26) asr 26 in
  let h3 = h3 + c and h2 = h2 - (c lsl 26) in
  let c = (h6 + b26) asr 26 in
  let h7 = h7 + c and h6 = h6 - (c lsl 26) in
  let c = (h3 + b25) asr 25 in
  let h4 = h4 + c and h3 = h3 - (c lsl 25) in
  let c = (h7 + b25) asr 25 in
  let h8 = h8 + c and h7 = h7 - (c lsl 25) in
  let c = (h4 + b26) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h8 + b26) asr 26 in
  let h9 = h9 + c and h8 = h8 - (c lsl 26) in
  let c = (h9 + b25) asr 25 in
  let h0 = h0 + (19 * c) and h9 = h9 - (c lsl 25) in
  let c = (h0 + b26) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  Array.unsafe_set d 0 h0;
  Array.unsafe_set d 1 h1;
  Array.unsafe_set d 2 h2;
  Array.unsafe_set d 3 h3;
  Array.unsafe_set d 4 h4;
  Array.unsafe_set d 5 h5;
  Array.unsafe_set d 6 h6;
  Array.unsafe_set d 7 h7;
  Array.unsafe_set d 8 h8;
  Array.unsafe_set d 9 h9

let sq (f : t) : t =
  let d = Array.make 10 0 in
  sq_into d f;
  d

(* --- Canonical encoding (the only place full reduction happens) --- *)

(** Canonical 32-byte little-endian encoding of the value mod p
    (top bit always clear). Works for any loosely-reduced input,
    negative limbs included: [q] below is ⌊(h + 19·sign slack)/2^255⌋,
    so h + 19q - q·2^255 lands in [0, p). *)
let to_bytes_le (h : t) : string =
  let h0 = h.(0) and h1 = h.(1) and h2 = h.(2) and h3 = h.(3) and h4 = h.(4)
  and h5 = h.(5) and h6 = h.(6) and h7 = h.(7) and h8 = h.(8) and h9 = h.(9) in
  let q = ((19 * h9) + (1 lsl 24)) asr 25 in
  let q = (h0 + q) asr 26 in
  let q = (h1 + q) asr 25 in
  let q = (h2 + q) asr 26 in
  let q = (h3 + q) asr 25 in
  let q = (h4 + q) asr 26 in
  let q = (h5 + q) asr 25 in
  let q = (h6 + q) asr 26 in
  let q = (h7 + q) asr 25 in
  let q = (h8 + q) asr 26 in
  let q = (h9 + q) asr 25 in
  let h0 = h0 + (19 * q) in
  let c = h0 asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  let c = h1 asr 25 in
  let h2 = h2 + c and h1 = h1 - (c lsl 25) in
  let c = h2 asr 26 in
  let h3 = h3 + c and h2 = h2 - (c lsl 26) in
  let c = h3 asr 25 in
  let h4 = h4 + c and h3 = h3 - (c lsl 25) in
  let c = h4 asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = h5 asr 25 in
  let h6 = h6 + c and h5 = h5 - (c lsl 25) in
  let c = h6 asr 26 in
  let h7 = h7 + c and h6 = h6 - (c lsl 26) in
  let c = h7 asr 25 in
  let h8 = h8 + c and h7 = h7 - (c lsl 25) in
  let c = h8 asr 26 in
  let h9 = h9 + c and h8 = h8 - (c lsl 26) in
  let h9 = h9 - ((h9 asr 25) lsl 25) in
  let s = Bytes.create 32 in
  let set i v = Bytes.unsafe_set s i (Char.unsafe_chr (v land 0xff)) in
  set 0 h0;
  set 1 (h0 lsr 8);
  set 2 (h0 lsr 16);
  set 3 ((h0 lsr 24) lor (h1 lsl 2));
  set 4 (h1 lsr 6);
  set 5 (h1 lsr 14);
  set 6 ((h1 lsr 22) lor (h2 lsl 3));
  set 7 (h2 lsr 5);
  set 8 (h2 lsr 13);
  set 9 ((h2 lsr 21) lor (h3 lsl 5));
  set 10 (h3 lsr 3);
  set 11 (h3 lsr 11);
  set 12 ((h3 lsr 19) lor (h4 lsl 6));
  set 13 (h4 lsr 2);
  set 14 (h4 lsr 10);
  set 15 (h4 lsr 18);
  set 16 h5;
  set 17 (h5 lsr 8);
  set 18 (h5 lsr 16);
  set 19 ((h5 lsr 24) lor (h6 lsl 1));
  set 20 (h6 lsr 7);
  set 21 (h6 lsr 15);
  set 22 ((h6 lsr 23) lor (h7 lsl 3));
  set 23 (h7 lsr 5);
  set 24 (h7 lsr 13);
  set 25 ((h7 lsr 21) lor (h8 lsl 4));
  set 26 (h8 lsr 4);
  set 27 (h8 lsr 12);
  set 28 ((h8 lsr 20) lor (h9 lsl 6));
  set 29 (h9 lsr 2);
  set 30 (h9 lsr 10);
  set 31 (h9 lsr 18);
  Bytes.unsafe_to_string s

(* Unpack 255 bits of a 32-byte little-endian string (bit 255, if any,
   is the caller's problem — the boundary conversions below only feed
   canonical values in). *)
let of_bytes32 (s : string) : t =
  let b i = Char.code (String.unsafe_get s i) in
  let load3 i = b i lor (b (i + 1) lsl 8) lor (b (i + 2) lsl 16) in
  let load4 i = load3 i lor (b (i + 3) lsl 24) in
  carry_make (load4 0)
    (load3 4 lsl 6)
    (load3 7 lsl 5)
    (load3 10 lsl 3)
    (load3 13 lsl 2)
    (load4 16)
    (load3 20 lsl 7)
    (load3 23 lsl 5)
    (load3 26 lsl 4)
    ((load3 29 land 0x7fffff) lsl 2)

(* --- Bn boundary (cold paths: constants, sampling, hex) --- *)

let ctx = Bn.Barrett.create p
let of_bn (x : Bn.t) : t = of_bytes32 (Bn.to_bytes_le (Bn.Barrett.reduce ctx x) ~len:32)
let to_bn (a : t) : Bn.t = Bn.of_bytes_le (to_bytes_le a)

let of_bytes_le (s : string) : t =
  if String.length s = 32 && Char.code s.[31] < 0x80 then of_bytes32 s
  else of_bn (Bn.of_bytes_le s)

let of_int (n : int) : t = of_bn (Bn.of_int n)
let of_hex (s : string) : t = of_bn (Bn.of_hex s)
let to_hex (a : t) : string = Bn.to_hex (to_bn a)

let random (g : Monet_hash.Drbg.t) : t =
  (* Uniform via wide reduction: 2x modulus width of entropy. *)
  of_bn (Bn.of_bytes_le (Monet_hash.Drbg.bytes g (2 * bytes_len)))

(* --- Comparisons (via the canonical encoding) --- *)

(* Field elements reach equality checks carrying secret-derived
   coordinates (e.g. point equality during verification); compare the
   canonical encodings in constant time so the scan never exits at
   the first differing byte. *)
let zero_bytes = String.make 32 '\000'

let equal (a : t) (b : t) : bool =
  Monet_util.Bytes_ext.ct_equal (to_bytes_le a) (to_bytes_le b)

let is_zero (a : t) : bool = Monet_util.Bytes_ext.ct_equal (to_bytes_le a) zero_bytes
let is_odd (a : t) : bool = Char.code (to_bytes_le a).[0] land 1 = 1

(* --- Curve constants --- *)

let d = of_hex "52036cee2b6ffe738cc740797779e89800700a4d4141d8ab75eb4dca135978a3"
let sqrt_m1 = of_hex "2b8324804fc1df0b2b4d00993dfbd7a72f431806ad2fe478c4ee1b274a0ea0b0"

(* --- Fixed exponentiations (ref10 addition chains) ---------------------

   Both exponents the curve needs share the prefix z^(2^250 - 1):
   p - 2 = (2^250 - 1)·2^5 + 11 and (p - 5)/8 = (2^250 - 1)·2^2 + 1.
   The chain to it is 249 squarings and 10 multiplications (z^11 on
   the way), against ~254 squarings and ~250 multiplications for a
   binary ladder over a Bn exponent. *)

(* [sq_n_into d a n]: d := a^(2^n), n ≥ 1. *)
let sq_n_into (d : t) (a : t) (n : int) : unit =
  sq_into d a;
  for _ = 2 to n do
    sq_into d d
  done

(* (z^11, z^(2^250 - 1)). *)
let pow_prefix (z : t) : t * t =
  let z2 = sq z in
  let t = alloc () in
  sq_n_into t z2 2;
  let z9 = mul z t in
  let z11 = mul z2 z9 in
  sq_into t z11;
  let e5 = mul z9 t in (* 2^5 - 1 *)
  sq_n_into t e5 5;
  let e10 = mul t e5 in
  sq_n_into t e10 10;
  let e20 = mul t e10 in
  sq_n_into t e20 20;
  mul_into t t e20; (* 2^40 - 1 *)
  sq_n_into t t 10;
  let e50 = mul t e10 in
  sq_n_into t e50 50;
  let e100 = mul t e50 in
  sq_n_into t e100 100;
  mul_into t t e100; (* 2^200 - 1 *)
  sq_n_into t t 50;
  mul_into t t e50; (* 2^250 - 1 *)
  (z11, t)

let m_inv = Monet_obs.Metrics.counter "ec.fe_inv"

(** Multiplicative inverse, z^(p-2) (0 maps to 0). *)
let inv (z : t) : t =
  Monet_obs.Metrics.bump m_inv;
  let z11, t = pow_prefix z in
  sq_n_into t t 5;
  mul_into t t z11;
  t

(** z^((p-5)/8) = z^(2^252 - 3), the exponent of the RFC 8032
    square-root-of-a-ratio formula. *)
let pow22523 (z : t) : t =
  let _, t = pow_prefix z in
  sq_n_into t t 2;
  mul_into t t z;
  t

(** Square root mod p (p = 5 mod 8): candidate = a^((p+3)/8)
    = a·a^((p-5)/8), fixed up by sqrt(-1) when needed. Returns [None]
    if [a] is a non-residue. *)
let sqrt (a : t) : t option =
  let x = mul a (pow22523 a) in
  let x2 = sq x in
  if equal x2 a then Some x
  else begin
    let x' = mul x sqrt_m1 in
    if equal (sq x') a then Some x' else None
  end

let pp ppf a = Format.pp_print_string ppf (to_hex a)
