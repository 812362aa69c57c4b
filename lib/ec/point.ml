(** The ed25519 group: twisted Edwards curve -x² + y² = 1 + d·x²·y²
    over GF(2^255-19), in extended homogeneous coordinates (X:Y:Z:T)
    with x = X/Z, y = Y/Z, T = XY/Z.

    Arithmetic is variable-time: this is a research reproduction, not a
    hardened wallet. Encoding is the standard 32-byte little-endian y
    with the sign of x in the top bit.

    Scalar multiplication strategy (DESIGN.md §3.5):
    - {!mul}: width-5 signed sliding window (wNAF) over a precomputed
      odd-multiples table of the point — ~252 doublings, ~42 additions;
    - {!mul_base}: fixed-base comb over a lazy 32x255 byte-window table
      of B — 32 additions, no doublings;
    - {!mul2} / {!double_mul}: Straus–Shamir interleaving, one shared
      doubling chain for both scalars; [double_mul a p b] = a·P + b·B
      uses a wider (width-8) wNAF table for the fixed base. Every
      verification equation in sig/sigma/cas/vcof/xmr routes through
      these instead of two independent {!mul} calls.

    Each point memoises its canonical 32-byte encoding in [enc]
    ([""] until the first {!encode}; {!decode} seeds it from its
    canonical input). Every constructor starts with [enc = ""], so a
    memo always belongs to the coordinates it was computed from. *)

type t = { x : Fe.t; y : Fe.t; z : Fe.t; t : Fe.t; mutable enc : string }

(* Scalar-multiplication provenance counters (DESIGN.md §3.8). *)
let m_mul = Monet_obs.Metrics.counter "ec.point_mul"
let m_mul_base = Monet_obs.Metrics.counter "ec.point_mul_base"
let m_mul2 = Monet_obs.Metrics.counter "ec.point_mul2"
let m_double_mul = Monet_obs.Metrics.counter "ec.point_double_mul"

let identity = { x = Fe.zero; y = Fe.one; z = Fe.one; t = Fe.zero; enc = "" }

let of_affine (x : Fe.t) (y : Fe.t) : t =
  { x; y; z = Fe.one; t = Fe.mul x y; enc = "" }

(* Base point B: y = 4/5, x recovered with even sign convention. *)
let base =
  of_affine
    (Fe.of_hex "216936d3cd6e53fec0a4e231fdd6dc5c692cc7609525a7b2c9562d608f25d51a")
    (Fe.of_hex "6666666666666666666666666666666666666666666666666666666666666658")

let d2 = Fe.add Fe.d Fe.d

(* add-2008-hwcd-3 for a = -1 (unified: works for doubling too). *)
let add (p : t) (q : t) : t =
  let a = Fe.mul (Fe.sub p.y p.x) (Fe.sub q.y q.x) in
  let b = Fe.mul (Fe.add p.y p.x) (Fe.add q.y q.x) in
  let c = Fe.mul (Fe.mul p.t d2) q.t in
  let dd = Fe.mul (Fe.add p.z p.z) q.z in
  let e = Fe.sub b a in
  let f = Fe.sub dd c in
  let g = Fe.add dd c in
  let h = Fe.add b a in
  { x = Fe.mul e f; y = Fe.mul g h; t = Fe.mul e h; z = Fe.mul f g; enc = "" }

(* dbl-2008-hwcd with a = -1. *)
let double (p : t) : t =
  let a = Fe.sq p.x in
  let b = Fe.sq p.y in
  let z2 = Fe.sq p.z in
  let c = Fe.add z2 z2 in
  let dd = Fe.neg a in
  let e = Fe.sub (Fe.sub (Fe.sq (Fe.add p.x p.y)) a) b in
  let g = Fe.add dd b in
  let f = Fe.sub g c in
  let h = Fe.sub dd b in
  { x = Fe.mul e f; y = Fe.mul g h; t = Fe.mul e h; z = Fe.mul f g; enc = "" }

let neg (p : t) : t = { x = Fe.neg p.x; y = p.y; z = p.z; t = Fe.neg p.t; enc = "" }
let sub_point (p : t) (q : t) : t = add p (neg q)

let equal (p : t) (q : t) : bool =
  (* (X1/Z1 = X2/Z2) and (Y1/Z1 = Y2/Z2), cross-multiplied. *)
  Fe.equal (Fe.mul p.x q.z) (Fe.mul q.x p.z)
  && Fe.equal (Fe.mul p.y q.z) (Fe.mul q.y p.z)

(* O = (0 : Z : Z : 0), so X = 0 ∧ Y = Z suffices — no field
   multiplications, unlike going through [equal p identity]. *)
let is_identity (p : t) : bool = Fe.is_zero p.x && Fe.equal p.y p.z

(* --- Scalar recoding ------------------------------------------------ *)

(* Signed sliding-window recoding: returns 262 digits, each 0 or odd in
   [-m, m] (m = 2^(w-1) - 1 for width w), with nonzero digits at least
   w apart. Positions ≥ 256 only ever hold a carry bit from the borrow
   propagation; scalars here are < 2^255. *)
let slide ~(m : int) (k : Sc.t) : int array =
  let bytes = Sc.to_bytes_le k in
  let r = Array.make 262 0 in
  for i = 0 to 255 do
    r.(i) <- (Char.code bytes.[i lsr 3] lsr (i land 7)) land 1
  done;
  for i = 0 to 255 do
    if r.(i) <> 0 then begin
      let b = ref 1 in
      while !b <= 8 && i + !b <= 255 do
        (if r.(i + !b) <> 0 then
           let v = r.(i + !b) lsl !b in
           if r.(i) + v <= m then begin
             r.(i) <- r.(i) + v;
             r.(i + !b) <- 0
           end
           else if r.(i) - v >= -m then begin
             r.(i) <- r.(i) - v;
             (* propagate the borrow upward *)
             let j = ref (i + !b) in
             let carrying = ref true in
             while !carrying do
               if r.(!j) = 0 then begin
                 r.(!j) <- 1;
                 carrying := false
               end
               else begin
                 r.(!j) <- 0;
                 incr j
               end
             done
           end
           else b := 9 (* window exhausted *));
        incr b
      done
    end
  done;
  r

(* tbl.(i) = (2i+1)·P *)
let odd_multiples (p : t) (n : int) : t array =
  let tbl = Array.make n p in
  let p2 = double p in
  for i = 1 to n - 1 do
    tbl.(i) <- add tbl.(i - 1) p2
  done;
  tbl

(* Apply a wNAF digit d (0 or odd) against an odd-multiples table. *)
let apply_digit (acc : t) (tbl : t array) (d : int) : t =
  if d > 0 then add acc tbl.(d asr 1)
  else if d < 0 then sub_point acc tbl.(-d asr 1)
  else acc

(* Fixed-base comb: table.(w).(j) = (j+1) · 256^w · B, built with one
   running row (32·255 additions, amortized over the process). *)
let base_table : t array array lazy_t =
  lazy
    (let step = ref base in
     Array.init 32 (fun _ ->
         let row = Array.make 255 identity in
         row.(0) <- !step;
         for j = 1 to 254 do
           row.(j) <- add row.(j - 1) !step
         done;
         (* 256·step = row.(254) + step, seeding the next window *)
         step := add row.(254) !step;
         row))

(** [mul_base k] = k·B: one table addition per nonzero scalar byte. *)
let mul_base (k : Sc.t) : t =
  Monet_obs.Metrics.bump m_mul_base;
  let table = Lazy.force base_table in
  let acc = ref identity in
  let bytes = Sc.to_bytes_le k in
  for i = 0 to 31 do
    let byte = Char.code bytes.[i] in
    if byte <> 0 then acc := add !acc table.(i).(byte - 1)
  done;
  !acc

(** Variable-base multiplication: width-5 wNAF over an 8-entry
    odd-multiples table. [mul k Point.base] is redirected to the comb
    (callers should say {!mul_base}, but the literal base point is
    cheap to recognize and common in generic code such as DLEQ over
    (G, Hp)). *)
let mul (k : Sc.t) (p : t) : t =
  if p == base then mul_base k
  else begin
    Monet_obs.Metrics.bump m_mul;
    let naf = slide ~m:15 k in
    let i = ref 261 in
    while !i >= 0 && naf.(!i) = 0 do
      decr i
    done;
    if !i < 0 then identity
    else begin
      let tbl = odd_multiples p 8 in
      let acc = ref (apply_digit identity tbl naf.(!i)) in
      for j = !i - 1 downto 0 do
        acc := double !acc;
        acc := apply_digit !acc tbl naf.(j)
      done;
      !acc
    end
  end

(* Width-8 wNAF table of B for the Straus fixed-base leg. *)
let base_wnaf_table : t array lazy_t = lazy (odd_multiples base 64)

(** Force the process-wide precomputed tables. OCaml lazies are not
    safe to force concurrently (CamlinternalLazy.Undefined); anything
    that spawns domains which touch the group (lib/net/shard.ml) must
    call this on the parent domain first. *)
let force_precomp () =
  ignore (Lazy.force base_table);
  ignore (Lazy.force base_wnaf_table)

(** Whether both precomputed tables have been materialized — the
    invariant {!force_precomp} establishes. Exposed so tests can
    assert the tables are forced before the first [Domain.spawn]. *)
let precomp_forced () = Lazy.is_val base_table && Lazy.is_val base_wnaf_table

(** [mul2 a p b q] = a·P + b·Q by Straus–Shamir interleaving: one
    shared doubling chain, two width-5 wNAF digit streams. *)
let mul2 (a : Sc.t) (p : t) (b : Sc.t) (q : t) : t =
  Monet_obs.Metrics.bump m_mul2;
  let na = slide ~m:15 a and nb = slide ~m:15 b in
  let i = ref 261 in
  while !i >= 0 && na.(!i) = 0 && nb.(!i) = 0 do
    decr i
  done;
  if !i < 0 then identity
  else begin
    let ta = odd_multiples p 8 and tb = odd_multiples q 8 in
    let acc = ref (apply_digit (apply_digit identity ta na.(!i)) tb nb.(!i)) in
    for j = !i - 1 downto 0 do
      acc := double !acc;
      acc := apply_digit !acc ta na.(j);
      acc := apply_digit !acc tb nb.(j)
    done;
    !acc
  end

(** [double_mul a p b] = a·P + b·B — the verifier's workhorse: every
    sig/sigma check of the shape s·G ± c·X goes through here, paying
    one doubling chain instead of two. The fixed-base leg uses a
    width-8 wNAF (64-entry odd-multiples table of B). *)
let double_mul (a : Sc.t) (p : t) (b : Sc.t) : t =
  Monet_obs.Metrics.bump m_double_mul;
  let na = slide ~m:15 a and nb = slide ~m:127 b in
  let i = ref 261 in
  while !i >= 0 && na.(!i) = 0 && nb.(!i) = 0 do
    decr i
  done;
  if !i < 0 then identity
  else begin
    let ta = odd_multiples p 8 and tb = Lazy.force base_wnaf_table in
    let acc = ref (apply_digit (apply_digit identity ta na.(!i)) tb nb.(!i)) in
    for j = !i - 1 downto 0 do
      acc := double !acc;
      acc := apply_digit !acc ta na.(j);
      acc := apply_digit !acc tb nb.(j)
    done;
    !acc
  end

(* --- Multi-scalar multiplication (Pippenger) ------------------------ *)

(* Signed base-2^w digit recoding: digits d_j ∈ [-2^(w-1), 2^(w-1)]
   with Σ d_j·2^(jw) = k. One extra digit absorbs the final carry
   (scalars are < 2^253). *)
let signed_digits ~(w : int) (k : Sc.t) : int array =
  let bytes = Sc.to_bytes_le k in
  let nwin = ((256 + w - 1) / w) + 1 in
  let digits = Array.make nwin 0 in
  let byte i = if i >= 32 then 0 else Char.code (String.unsafe_get bytes i) in
  (* Only recode up to the scalar's top nonzero byte: short (e.g.
     128-bit batch-randomizer) scalars fill half the windows with
     structural zeros. *)
  let top = ref 31 in
  while !top > 0 && byte !top = 0 do
    decr top
  done;
  let last_win = min (nwin - 1) ((((!top + 1) * 8) / w) + 1) in
  let mask = (1 lsl w) - 1 in
  let half = 1 lsl (w - 1) in
  let carry = ref 0 in
  for j = 0 to last_win do
    (* Window j covers bits [j·w, j·w + w); with w ≤ 13 it spans at
       most three bytes, read in one go. *)
    let bit0 = j * w in
    let idx = bit0 lsr 3 and off = bit0 land 7 in
    let v =
      (byte idx lor (byte (idx + 1) lsl 8) lor (byte (idx + 2) lsl 16))
      lsr off land mask
    in
    let u = ref (v + !carry) in
    if !u > half then begin
      digits.(j) <- !u - (1 lsl w);
      carry := 1
    end
    else begin
      digits.(j) <- !u;
      carry := 0
    end
  done;
  digits

(* Pippenger window width: minimize the additions model
   ceil(256/w)·(n + 2·2^(w-1)) — the scatter pass plus the two-pass
   bucket reduction — over the doubling chain shared by all windows.
   (Window widths one either side of the optimum measure within noise
   of each other on batch-sized inputs; the simple model tracks the
   measured optimum across n = 32…512.) *)
let msm_window (n : int) : int =
  let best = ref 1 and best_cost = ref max_int in
  for w = 1 to 13 do
    let windows = ((256 + w - 1) / w) + 1 in
    let cost = windows * (n + (2 * (1 lsl (w - 1)))) in
    if cost < !best_cost then begin
      best_cost := cost;
      best := w
    end
  done;
  !best

let m_msm = Monet_obs.Metrics.counter "ec.point_msm"
let m_msm_terms = Monet_obs.Metrics.counter "ec.point_msm_terms"

(** Normalize many points to Z = 1 with one shared field inversion
    (Montgomery's trick): ~3 field multiplications per point instead
    of one inversion (254 squarings + 11 multiplications) each. The
    returned points are equal to the inputs as group elements. *)
let normalize_batch (ps : t array) : t array =
  let n = Array.length ps in
  if n = 0 then [||]
  else begin
    let prefix = Array.make n Fe.one in
    let acc = ref Fe.one in
    for i = 0 to n - 1 do
      prefix.(i) <- !acc;
      acc := Fe.mul !acc ps.(i).z
    done;
    let inv = ref (Fe.inv !acc) in
    let out = Array.make n identity in
    for i = n - 1 downto 0 do
      let zi = Fe.mul !inv prefix.(i) in
      inv := Fe.mul !inv ps.(i).z;
      let x = Fe.mul ps.(i).x zi and y = Fe.mul ps.(i).y zi in
      out.(i) <- { x; y; z = Fe.one; t = Fe.mul x y; enc = "" }
    done;
    out
  end

(** [msm [| (k₀,P₀); … |]] = Σ kᵢ·Pᵢ by bucketed (Pippenger)
    multi-scalar multiplication with signed base-2^w digits, the
    window width chosen from the term count. Sub-linear in n: one
    shared doubling chain and ~n + 2^w additions per window, so
    verifying a batch of n equations costs far less than n
    independent scalar multiplications. Terms with zero scalars or
    identity points are harmless (they scatter nothing). *)
let msm (terms : (Sc.t * t) array) : t =
  let n = Array.length terms in
  if n = 0 then identity
  else if n < 4 then
    (* Below the bucket break-even: Straus-pair the terms. *)
    let rec go i acc =
      if i >= n then acc
      else if i + 1 < n then
        let k0, p0 = terms.(i) and k1, p1 = terms.(i + 1) in
        go (i + 2) (add acc (mul2 k0 p0 k1 p1))
      else
        let k, p = terms.(i) in
        add acc (mul k p)
    in
    go 0 identity
  else begin
    Monet_obs.Metrics.bump m_msm;
    Monet_obs.Metrics.add m_msm_terms n;
    let w = msm_window n in
    let half = 1 lsl (w - 1) in
    let digits = Array.map (fun (k, _) -> signed_digits ~w k) terms in
    let nwin = ((256 + w - 1) / w) + 1 in
    (* Normalize the input points once (one shared inversion) and keep
       them in precomputed "Niels" form (y−x, y+x, ±2d·t): the scatter
       adds below are then mixed additions — 7 field multiplications
       instead of the 9 of the unified projective formula — and a
       negated term is free (swap the y∓x legs, take the negated t
       leg). All accumulators (buckets, running sums, the result) are
       mutable working points over preallocated limb buffers, reused
       across every window: a fresh-allocation formula would churn
       ~13 ten-word arrays per addition through the minor heap. *)
    let norm = normalize_batch (Array.map snd terms) in
    let ym = Array.map (fun p -> Fe.sub p.y p.x) norm in
    let yp = Array.map (fun p -> Fe.add p.y p.x) norm in
    let td = Array.map (fun p -> Fe.mul p.t d2) norm in
    let tdn = Array.map Fe.neg td in
    let wp_alloc () = (Fe.alloc (), Fe.alloc (), Fe.alloc (), Fe.alloc ()) in
    (* Shared scratch for the formulas below; no call nests another. *)
    let s0 = Fe.alloc () and s1 = Fe.alloc () and s2 = Fe.alloc ()
    and s3 = Fe.alloc () and s4 = Fe.alloc () and s5 = Fe.alloc ()
    and s6 = Fe.alloc () and s7 = Fe.alloc () in
    (* acc += Niels form of ±norm(i); add-2008-hwcd-3 mixed. *)
    let add_niels_into ((ax, ay, az, at) : Fe.t * Fe.t * Fe.t * Fe.t) (i : int)
        (positive : bool) : unit =
      let ymi = if positive then ym.(i) else yp.(i) in
      let ypi = if positive then yp.(i) else ym.(i) in
      let tdi = if positive then td.(i) else tdn.(i) in
      Fe.sub_into s0 ay ax;
      Fe.mul_into s0 s0 ymi;
      Fe.add_into s1 ay ax;
      Fe.mul_into s1 s1 ypi;
      Fe.mul_into s2 at tdi;
      Fe.add_into s3 az az;
      Fe.sub_into s4 s1 s0;
      Fe.sub_into s5 s3 s2;
      Fe.add_into s6 s3 s2;
      Fe.add_into s7 s1 s0;
      Fe.mul_into ax s4 s5;
      Fe.mul_into ay s6 s7;
      Fe.mul_into at s4 s7;
      Fe.mul_into az s5 s6
    in
    (* r += q; unified add-2008-hwcd-3 (r and q must not alias). *)
    let add_wp_into ((rx, ry, rz, rt) : Fe.t * Fe.t * Fe.t * Fe.t)
        ((qx, qy, qz, qt) : Fe.t * Fe.t * Fe.t * Fe.t) : unit =
      Fe.sub_into s0 ry rx;
      Fe.sub_into s1 qy qx;
      Fe.mul_into s0 s0 s1;
      Fe.add_into s1 ry rx;
      Fe.add_into s2 qy qx;
      Fe.mul_into s1 s1 s2;
      Fe.mul_into s2 rt d2;
      Fe.mul_into s2 s2 qt;
      Fe.add_into s3 rz rz;
      Fe.mul_into s3 s3 qz;
      Fe.sub_into s4 s1 s0;
      Fe.sub_into s5 s3 s2;
      Fe.add_into s6 s3 s2;
      Fe.add_into s7 s1 s0;
      Fe.mul_into rx s4 s5;
      Fe.mul_into ry s6 s7;
      Fe.mul_into rt s4 s7;
      Fe.mul_into rz s5 s6
    in
    (* acc := 2·acc; dbl-2008-hwcd. *)
    let double_into ((ax, ay, az, at) : Fe.t * Fe.t * Fe.t * Fe.t) : unit =
      Fe.sq_into s0 ax;
      Fe.sq_into s1 ay;
      Fe.sq_into s2 az;
      Fe.add_into s2 s2 s2;
      Fe.neg_into s3 s0;
      Fe.add_into s4 ax ay;
      Fe.sq_into s4 s4;
      Fe.sub_into s4 s4 s0;
      Fe.sub_into s4 s4 s1;
      Fe.add_into s5 s3 s1;
      Fe.sub_into s6 s5 s2;
      Fe.sub_into s7 s3 s1;
      Fe.mul_into ax s4 s6;
      Fe.mul_into ay s5 s7;
      Fe.mul_into at s4 s7;
      Fe.mul_into az s6 s5
    in
    let store_into ((bx, by, bz, bt) : Fe.t * Fe.t * Fe.t * Fe.t) (i : int)
        (positive : bool) : unit =
      let p = norm.(i) in
      if positive then begin
        Fe.copy_into bx p.x;
        Fe.copy_into bt p.t
      end
      else begin
        Fe.neg_into bx p.x;
        Fe.neg_into bt p.t
      end;
      Fe.copy_into by p.y;
      Fe.copy_into bz p.z
    in
    let copy_wp ((dx, dy, dz, dt) : Fe.t * Fe.t * Fe.t * Fe.t)
        ((sx, sy, sz, st) : Fe.t * Fe.t * Fe.t * Fe.t) : unit =
      Fe.copy_into dx sx;
      Fe.copy_into dy sy;
      Fe.copy_into dz sz;
      Fe.copy_into dt st
    in
    let buckets = Array.init (half + 1) (fun _ -> wp_alloc ()) in
    let occ = Array.make (half + 1) false in
    let running = wp_alloc () and total = wp_alloc () and acc = wp_alloc () in
    let has_acc = ref false in
    for j = nwin - 1 downto 0 do
      if !has_acc then
        for _ = 1 to w do
          double_into acc
        done;
      (* Scatter this window's digits into |digit| buckets, tracking
         the highest bucket touched so the reduction sweep only walks
         the populated prefix. First store into an empty bucket is a
         copy, not an addition. *)
      let hi = ref 0 in
      for i = 0 to n - 1 do
        let d = digits.(i).(j) in
        if d <> 0 then begin
          let b = abs d in
          if occ.(b) then add_niels_into buckets.(b) i (d > 0)
          else begin
            store_into buckets.(b) i (d > 0);
            occ.(b) <- true
          end;
          if b > !hi then hi := b
        end
      done;
      if !hi > 0 then begin
        (* Σ b·bucket[b] via the running-sum trick, skipping empty
           buckets (sparse with short — e.g. 128-bit randomizer —
           coefficients, where half the windows scatter nothing). *)
        let has_run = ref false and has_tot = ref false in
        for b = !hi downto 1 do
          if occ.(b) then begin
            if !has_run then add_wp_into running buckets.(b)
            else begin
              copy_wp running buckets.(b);
              has_run := true
            end;
            occ.(b) <- false
          end;
          if !has_run then
            if !has_tot then add_wp_into total running
            else begin
              copy_wp total running;
              has_tot := true
            end
        done;
        if !has_acc then add_wp_into acc total
        else begin
          copy_wp acc total;
          has_acc := true
        end
      end
    done;
    if not !has_acc then identity
    else
      let ax, ay, az, at = acc in
      { x = Fe.copy ax; y = Fe.copy ay; z = Fe.copy az; t = Fe.copy at; enc = "" }
  end

let is_on_curve (p : t) : bool =
  (* -x² + y² = z² + d t²  and  t·z = x·y (extended-coordinate invariants) *)
  let x2 = Fe.sq p.x and y2 = Fe.sq p.y and z2 = Fe.sq p.z in
  Fe.equal (Fe.sub y2 x2) (Fe.add z2 (Fe.mul Fe.d (Fe.sq p.t)))
  && Fe.equal (Fe.mul p.t p.z) (Fe.mul p.x p.y)

(** Multiply by the cofactor 8. *)
let mul_cofactor (p : t) : t = double (double (double p))

(** In the prime-order subgroup? (ℓ·P = O) *)
let in_prime_subgroup (p : t) : bool = is_identity (mul Sc.l p)

(* --- Encoding --- *)

(* Compress affine (x, y): 32-byte little-endian y, sign of x on top. *)
let encode_affine (x : Fe.t) (y : Fe.t) : string =
  let bytes = Bytes.of_string (Fe.to_bytes_le y) in
  if Fe.is_odd x then
    Bytes.set bytes 31 (Char.chr (Char.code (Bytes.get bytes 31) lor 0x80));
  Bytes.unsafe_to_string bytes

let m_encode = Monet_obs.Metrics.counter "ec.point_encode"

(* The memo write is an idempotent store of an immutable string: two
   domains encoding the same point at once both compute the same
   bytes, and a reader sees either [""] (and recomputes) or a fully
   built string, never a torn one. *)
let encode (p : t) : string =
  if p.enc <> "" then p.enc
  else begin
    Monet_obs.Metrics.bump m_encode;
    let zi = Fe.inv p.z in
    let s = encode_affine (Fe.mul p.x zi) (Fe.mul p.y zi) in
    p.enc <- s;
    s
  end

(** Encode many points with one shared field inversion (Montgomery's
    trick: prefix-product the Zᵢ, invert the total, walk back) over
    the points whose encoding is not memoised yet. A single {!Fe.inv}
    is 254 squarings and 11 multiplications, so batch verifiers that
    hash dozens of points into challenges pay ~3 field multiplications
    per point here instead of one inversion each. *)
let encode_batch (ps : t array) : string array =
  let miss = Array.of_list (List.filter (fun p -> p.enc = "") (Array.to_list ps)) in
  let norm = normalize_batch miss in
  Array.iteri
    (fun i p ->
      Monet_obs.Metrics.bump m_encode;
      p.enc <- encode_affine norm.(i).x norm.(i).y)
    miss;
  Array.map (fun p -> p.enc) ps

(** Decompress per RFC 8032 §5.1.3: x = u·v³·(u·v⁷)^((p-5)/8) with
    u = y² - 1, v = d·y² + 1 — one exponentiation chain, no inversion.
    The candidate equals (u/v)^((p+3)/8) (v is never 0: -1/d is not a
    square), so the accepted set and every decoded point are those of
    the textbook sqrt(u/v). The input is canonical when accepted, so it
    seeds the encoding memo. *)
let decode (s : string) : t option =
  if String.length s <> 32 then None
  else begin
    let sign = Char.code s.[31] lsr 7 = 1 in
    let ybytes =
      String.init 32 (fun i -> if i = 31 then Char.chr (Char.code s.[31] land 0x7f) else s.[i])
    in
    let y = Fe.of_bytes_le ybytes in
    (* y ≥ p re-encodes to y - p *)
    if not (String.equal (Fe.to_bytes_le y) ybytes) then None
    else begin
      let y2 = Fe.sq y in
      let u = Fe.sub y2 Fe.one and v = Fe.add (Fe.mul Fe.d y2) Fe.one in
      let v2 = Fe.sq v in
      let uv3 = Fe.mul u (Fe.mul v2 v) in
      let x = Fe.mul uv3 (Fe.pow22523 (Fe.mul uv3 (Fe.sq v2))) in
      let vx2 = Fe.mul v (Fe.sq x) in
      let root =
        if Fe.equal vx2 u then Some x
        else if Fe.equal vx2 (Fe.neg u) then Some (Fe.mul x Fe.sqrt_m1)
        else None
      in
      match root with
      | None -> None
      | Some x ->
          if Fe.is_zero x && sign then None
          else begin
            let x = if Fe.is_odd x <> sign then Fe.neg x else x in
            Some { x; y; z = Fe.one; t = Fe.mul x y; enc = s }
          end
    end
  end

let decode_exn (s : string) : t =
  match decode s with Some p -> p | None -> invalid_arg "Point.decode_exn"

(** Hash arbitrary data to a point of the prime-order subgroup by
    try-and-increment then cofactor clearing. This substitutes for
    Monero's Elligator-style hash_to_ec; it has the same interface and
    the same uniform-point-with-unknown-dlog property. *)
let h2p_cache : (string, t) Hashtbl.t = Hashtbl.create 64
let h2p_mu = Mutex.create ()

let hash_to_point (tag : string) (data : string) : t =
  let rec go ctr =
    let h = Monet_hash.Hash.tagged ("h2p/" ^ tag) [ data; string_of_int ctr ] in
    match decode (String.sub h 0 32) with
    | Some p ->
        let p8 = mul_cofactor p in
        if is_identity p8 then go (ctr + 1) else p8
    | None -> go (ctr + 1)
  in
  let key = tag ^ "\x00" ^ data in
  match Mutex.protect h2p_mu (fun () -> Hashtbl.find_opt h2p_cache key) with
  | Some p -> p
  | None ->
      let p = go 0 in
      Mutex.protect h2p_mu (fun () ->
          if Hashtbl.length h2p_cache > 65536 then Hashtbl.reset h2p_cache;
          Hashtbl.add h2p_cache key p);
      p

let pp ppf p = Format.fprintf ppf "%s" (Monet_util.Hex.encode (encode p))
