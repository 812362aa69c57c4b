(** The multiplicative group Z_ℓ* and its exponent ring Z_{ℓ-1}.

    This is the algebraic home of the VCOF consecutive function
    (DESIGN.md §3.2): witnesses are chained by y ↦ h^y mod ℓ, which is
    one-way under the discrete logarithm assumption in Z_ℓ*, while
    remaining a scalar usable on the ed25519 curve. Stadler-style
    double-discrete-log proofs need arithmetic on exponents, which
    lives modulo the group order ℓ-1. *)

(** Exponent ring Z_{ℓ-1}. ℓ-1 is not prime; we only use its additive
    structure (inverse-free), so [Fp.Make]'s add/sub/mul are sound and
    [inv] must not be used. *)
module Exp = Fp.Make (struct
  let modulus_hex = "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec"
  let name = "zl-exponent"
end)

(* Barrett context for ℓ itself: the cold paths (reducing a comb's
   base, the >384-bit fallback). *)
let ctx = Bn.Barrett.create Sc.l

(** The public chain base h (the VCOF public parameter pp). Any element
    of large multiplicative order works; we fix a small generator
    candidate and expose it as the default. *)
let default_base : Sc.t = Bn.of_int 7

(* --- Fixed-limb Montgomery arithmetic mod ℓ -------------------------

   Ten 26-bit limbs (the radix of [Bn], so conversions are a pad or a
   normalize) with R = 2^260. Values stay in [0, 2ℓ) without any
   conditional subtraction: for a, b < 2ℓ, REDC(a·b) < 4ℓ²/R + ℓ < 2ℓ
   since ℓ < 2^253. The schoolbook product has limb sums below
   10·2^52 and the reduction adds at most six more such terms per limb
   (ℓ's limbs 5..8 are zero: ℓ = 2^252 + a 125-bit δ), far from the
   2^62 native-int edge, so nothing is carried but each REDC step's
   exact low limb until the final normalization. *)

let nl = 10
let lmask = (1 lsl Bn.limb_bits) - 1

let limbs_of_bn (a : Bn.t) : int array =
  Array.init nl (fun i -> if i < Array.length a then a.(i) else 0)

let l_limbs = limbs_of_bn Sc.l
let l0 = l_limbs.(0) and l1 = l_limbs.(1) and l2 = l_limbs.(2)
and l3 = l_limbs.(3) and l4 = l_limbs.(4) and l9 = l_limbs.(9)

(* -ℓ⁻¹ mod 2^26 by Newton iteration (each step doubles the correct
   low bits; ℓ odd, so ℓ·ℓ ≡ 1 mod 8 seeds three of them). *)
let ninv =
  let x = ref l0 in
  for _ = 1 to 5 do
    x := !x * (2 - (l0 * !x)) land lmask
  done;
  - !x land lmask

(* [mont_mul d a ao b bo]: d[0..9] := a[ao..ao+9]·b[bo..bo+9]·R⁻¹ mod ℓ,
   in [0, 2ℓ). [d] may alias either operand (all limbs are read first).
   Straight-line like {!Fe.mul}: without flambda, loops over a scratch
   array cost twice as much. The column sums h0..h18 are taken first;
   then ten REDC steps each add m·ℓ (m = h_i·(−ℓ⁻¹) mod 2^26, making
   h_i divisible by 2^26) through ℓ's six nonzero limbs and carry h_i's
   high part one column up; h10..h18 plus the last carry are the
   result. *)
let mont_mul (d : int array) (a : int array) (ao : int) (b : int array) (bo : int) :
    unit =
  let a0 = Array.unsafe_get a ao and a1 = Array.unsafe_get a (ao + 1)
  and a2 = Array.unsafe_get a (ao + 2) and a3 = Array.unsafe_get a (ao + 3)
  and a4 = Array.unsafe_get a (ao + 4) and a5 = Array.unsafe_get a (ao + 5)
  and a6 = Array.unsafe_get a (ao + 6) and a7 = Array.unsafe_get a (ao + 7)
  and a8 = Array.unsafe_get a (ao + 8) and a9 = Array.unsafe_get a (ao + 9)
  in
  let b0 = Array.unsafe_get b bo and b1 = Array.unsafe_get b (bo + 1)
  and b2 = Array.unsafe_get b (bo + 2) and b3 = Array.unsafe_get b (bo + 3)
  and b4 = Array.unsafe_get b (bo + 4) and b5 = Array.unsafe_get b (bo + 5)
  and b6 = Array.unsafe_get b (bo + 6) and b7 = Array.unsafe_get b (bo + 7)
  and b8 = Array.unsafe_get b (bo + 8) and b9 = Array.unsafe_get b (bo + 9)
  in
  let h0 = (a0 * b0) in
  let h1 = (a0 * b1) + (a1 * b0) in
  let h2 = (a0 * b2) + (a1 * b1) + (a2 * b0) in
  let h3 = (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0) in
  let h4 = (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0) in
  let h5 =
    (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1)
    + (a5 * b0) in
  let h6 =
    (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2)
    + (a5 * b1) + (a6 * b0) in
  let h7 =
    (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3)
    + (a5 * b2) + (a6 * b1) + (a7 * b0) in
  let h8 =
    (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4)
    + (a5 * b3) + (a6 * b2) + (a7 * b1) + (a8 * b0) in
  let h9 =
    (a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5)
    + (a5 * b4) + (a6 * b3) + (a7 * b2) + (a8 * b1) + (a9 * b0) in
  let h10 =
    (a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5)
    + (a6 * b4) + (a7 * b3) + (a8 * b2) + (a9 * b1) in
  let h11 =
    (a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5)
    + (a7 * b4) + (a8 * b3) + (a9 * b2) in
  let h12 =
    (a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5)
    + (a8 * b4) + (a9 * b3) in
  let h13 =
    (a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5)
    + (a9 * b4) in
  let h14 = (a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5) in
  let h15 = (a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6) in
  let h16 = (a7 * b9) + (a8 * b8) + (a9 * b7) in
  let h17 = (a8 * b9) + (a9 * b8) in
  let h18 = (a9 * b9) in
  let m = h0 * ninv land lmask in
  let h1 = h1 + (m * l1) + ((h0 + (m * l0)) asr Bn.limb_bits) in
  let h2 = h2 + (m * l2) and h3 = h3 + (m * l3) in
  let h4 = h4 + (m * l4) and h9 = h9 + (m * l9) in
  let m = h1 * ninv land lmask in
  let h2 = h2 + (m * l1) + ((h1 + (m * l0)) asr Bn.limb_bits) in
  let h3 = h3 + (m * l2) and h4 = h4 + (m * l3) in
  let h5 = h5 + (m * l4) and h10 = h10 + (m * l9) in
  let m = h2 * ninv land lmask in
  let h3 = h3 + (m * l1) + ((h2 + (m * l0)) asr Bn.limb_bits) in
  let h4 = h4 + (m * l2) and h5 = h5 + (m * l3) in
  let h6 = h6 + (m * l4) and h11 = h11 + (m * l9) in
  let m = h3 * ninv land lmask in
  let h4 = h4 + (m * l1) + ((h3 + (m * l0)) asr Bn.limb_bits) in
  let h5 = h5 + (m * l2) and h6 = h6 + (m * l3) in
  let h7 = h7 + (m * l4) and h12 = h12 + (m * l9) in
  let m = h4 * ninv land lmask in
  let h5 = h5 + (m * l1) + ((h4 + (m * l0)) asr Bn.limb_bits) in
  let h6 = h6 + (m * l2) and h7 = h7 + (m * l3) in
  let h8 = h8 + (m * l4) and h13 = h13 + (m * l9) in
  let m = h5 * ninv land lmask in
  let h6 = h6 + (m * l1) + ((h5 + (m * l0)) asr Bn.limb_bits) in
  let h7 = h7 + (m * l2) and h8 = h8 + (m * l3) in
  let h9 = h9 + (m * l4) and h14 = h14 + (m * l9) in
  let m = h6 * ninv land lmask in
  let h7 = h7 + (m * l1) + ((h6 + (m * l0)) asr Bn.limb_bits) in
  let h8 = h8 + (m * l2) and h9 = h9 + (m * l3) in
  let h10 = h10 + (m * l4) and h15 = h15 + (m * l9) in
  let m = h7 * ninv land lmask in
  let h8 = h8 + (m * l1) + ((h7 + (m * l0)) asr Bn.limb_bits) in
  let h9 = h9 + (m * l2) and h10 = h10 + (m * l3) in
  let h11 = h11 + (m * l4) and h16 = h16 + (m * l9) in
  let m = h8 * ninv land lmask in
  let h9 = h9 + (m * l1) + ((h8 + (m * l0)) asr Bn.limb_bits) in
  let h10 = h10 + (m * l2) and h11 = h11 + (m * l3) in
  let h12 = h12 + (m * l4) and h17 = h17 + (m * l9) in
  let m = h9 * ninv land lmask in
  let h10 = h10 + (m * l1) + ((h9 + (m * l0)) asr Bn.limb_bits) in
  let h11 = h11 + (m * l2) and h12 = h12 + (m * l3) in
  let h13 = h13 + (m * l4) and h18 = h18 + (m * l9) in
  let c = h10 asr Bn.limb_bits in
  Array.unsafe_set d 0 (h10 land lmask);
  let h11 = h11 + c in
  let c = h11 asr Bn.limb_bits in
  Array.unsafe_set d 1 (h11 land lmask);
  let h12 = h12 + c in
  let c = h12 asr Bn.limb_bits in
  Array.unsafe_set d 2 (h12 land lmask);
  let h13 = h13 + c in
  let c = h13 asr Bn.limb_bits in
  Array.unsafe_set d 3 (h13 land lmask);
  let h14 = h14 + c in
  let c = h14 asr Bn.limb_bits in
  Array.unsafe_set d 4 (h14 land lmask);
  let h15 = h15 + c in
  let c = h15 asr Bn.limb_bits in
  Array.unsafe_set d 5 (h15 land lmask);
  let h16 = h16 + c in
  let c = h16 asr Bn.limb_bits in
  Array.unsafe_set d 6 (h16 land lmask);
  let h17 = h17 + c in
  let c = h17 asr Bn.limb_bits in
  Array.unsafe_set d 7 (h17 land lmask);
  let h18 = h18 + c in
  let c = h18 asr Bn.limb_bits in
  Array.unsafe_set d 8 (h18 land lmask);
  Array.unsafe_set d 9 c

(* R² mod ℓ lifts a canonical value into Montgomery form. *)
let r2 = limbs_of_bn (Bn.rem (Bn.shift_left_bits Bn.one (2 * nl * Bn.limb_bits)) Sc.l)
let one_limbs = limbs_of_bn Bn.one

(* Fixed-base comb tables for [pow]. Stadler proofs exponentiate the
   same public base h for every one of their 80 repetitions, so the
   squaring schedule of a generic square-and-multiply is pure waste:
   precompute h^(d·2^(4i)) for each 4-bit window i and digit d once,
   and a 384-bit exponentiation becomes ~96 modular multiplications
   with no squarings at all. Tables are cached per base for the whole
   process (paid once, shared by prover, verifier and batch verifier);
   a mutex makes the cache safe to consult from worker domains. *)
let comb_window = 4
let comb_windows = ((8 * 48) + comb_window - 1) / comb_window (* 384-bit exps *)
let exp_limbs = ((comb_windows * comb_window) + Bn.limb_bits - 1) / Bn.limb_bits

(* Flat, Montgomery form: limbs [(16·i + d)·10, +10) hold
   h^(d·2^(4i))·R mod ℓ. *)
type comb = int array

let comb_entry i d = ((16 * i) + d) * nl

let combs : (string, comb) Hashtbl.t = Hashtbl.create 4
let combs_mu = Mutex.create ()

let build_comb (h : Sc.t) : comb =
  let tbl = Array.make (comb_entry comb_windows 0) 0 in
  let base = limbs_of_bn (Bn.Barrett.reduce ctx h) in
  mont_mul base base 0 r2 0;
  let one_m = Array.make nl 0 and cur = Array.make nl 0 in
  mont_mul one_m one_limbs 0 r2 0;
  for i = 0 to comb_windows - 1 do
    Array.blit one_m 0 tbl (comb_entry i 0) nl;
    for d = 1 to 15 do
      mont_mul cur tbl (comb_entry i (d - 1)) base 0;
      Array.blit cur 0 tbl (comb_entry i d) nl
    done;
    if i < comb_windows - 1 then
      for _ = 1 to comb_window do
        mont_mul base base 0 base 0
      done
  done;
  tbl

let comb_of (h : Sc.t) : comb =
  let key = Bn.to_bytes_le h ~len:32 in
  Mutex.protect combs_mu (fun () ->
      match Hashtbl.find_opt combs key with
      | Some t -> t
      | None ->
          let t = build_comb h in
          Hashtbl.add combs key t;
          t)

let m_pow = Monet_obs.Metrics.counter "ec.zl_pow"

(** [pow h x] = h^x mod ℓ — the VCOF consecutive one-way step.
    Fixed-base comb over the Montgomery kernel for exponents up to 384
    bits, window digits read straight off [x]'s 26-bit limbs; generic
    Barrett square-and-multiply beyond that. Allocates the accumulator,
    a padded copy of [x]'s limbs and the result, nothing per window. *)
let pow (h : Sc.t) (x : Bn.t) : Sc.t =
  Monet_obs.Metrics.bump m_pow;
  if Bn.num_bits x > comb_windows * comb_window then Bn.Barrett.pow_mod ctx h x
  else begin
    let tbl = comb_of h in
    let acc = Array.sub tbl (comb_entry 0 0) nl in
    (* x's limbs, zero-padded so a window straddling the top limb
       reads a 0 above it *)
    let xl = Array.make (exp_limbs + 1) 0 in
    Array.blit x 0 xl 0 (Array.length x);
    let nwin = (Bn.num_bits x + comb_window - 1) / comb_window in
    for i = 0 to nwin - 1 do
      let bit = i * comb_window in
      let k = bit / Bn.limb_bits and off = bit mod Bn.limb_bits in
      let d = ((xl.(k) lsr off) lor (xl.(k + 1) lsl (Bn.limb_bits - off))) land 15 in
      if d <> 0 then mont_mul acc acc 0 tbl (comb_entry i d)
    done;
    (* Leave Montgomery form; REDC(acc·1) ≤ ℓ, = ℓ only for h ≡ 0. *)
    mont_mul acc acc 0 one_limbs 0;
    let r = Bn.normalize acc in
    if Bn.compare r Sc.l >= 0 then Bn.sub r Sc.l else r
  end

(** Fold a scalar (mod ℓ) into the exponent ring (mod ℓ-1). *)
let exp_of_scalar (x : Sc.t) : Exp.t = Exp.of_bn x
