(* Bignum, field and curve tests: known-answer vectors plus qcheck
   property tests against OCaml int semantics on small values. *)
open Monet_ec

let drbg = Monet_hash.Drbg.of_int 1234

let small_nat = QCheck.map abs QCheck.int
let qtest = QCheck_alcotest.to_alcotest

(* --- Bn properties --- *)

let bn_roundtrip =
  QCheck.Test.make ~name:"bn of_int/to_int roundtrip" ~count:500 small_nat (fun n ->
      Bn.to_int_opt (Bn.of_int n) = Some n)

let bn_add =
  QCheck.Test.make ~name:"bn add matches int" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let a = a / 2 and b = b / 2 in
      Bn.to_int_opt (Bn.add (Bn.of_int a) (Bn.of_int b)) = Some (a + b))

let bn_sub =
  QCheck.Test.make ~name:"bn sub matches int" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let hi = max a b and lo = min a b in
      Bn.to_int_opt (Bn.sub (Bn.of_int hi) (Bn.of_int lo)) = Some (hi - lo))

let bn_mul =
  QCheck.Test.make ~name:"bn mul matches int" ~count:500
    QCheck.(pair (int_bound 0x3fffffff) (int_bound 0x3fffffff))
    (fun (a, b) -> Bn.to_int_opt (Bn.mul (Bn.of_int a) (Bn.of_int b)) = Some (a * b))

let bn_divmod =
  QCheck.Test.make ~name:"bn divmod matches int" ~count:500
    QCheck.(pair small_nat (int_range 1 1000000))
    (fun (a, b) ->
      let q, r = Bn.divmod (Bn.of_int a) (Bn.of_int b) in
      Bn.to_int_opt q = Some (a / b) && Bn.to_int_opt r = Some (a mod b))

let bn_hex_roundtrip =
  QCheck.Test.make ~name:"bn hex roundtrip" ~count:200 small_nat (fun n ->
      Bn.to_int_opt (Bn.of_hex (Bn.to_hex (Bn.of_int n))) = Some n)

let bn_shifts =
  QCheck.Test.make ~name:"bn shifts match int" ~count:500
    QCheck.(pair (int_bound 0xffffff) (int_bound 30))
    (fun (a, s) ->
      Bn.to_int_opt (Bn.shift_left_bits (Bn.of_int a) s) = Some (a lsl s)
      && Bn.to_int_opt (Bn.shift_right_bits (Bn.of_int a) s) = Some (a lsr s))

(* to_bytes_le reads bytes straight off the limbs; the oracle is the
   bit-by-bit definition. Values up to 400 bits, widths from tight to
   padded. *)
let bn_to_bytes_oracle (a : Bn.t) ~len =
  String.init len (fun i ->
      let b = ref 0 in
      for j = 0 to 7 do
        if Bn.testbit a ((8 * i) + j) then b := !b lor (1 lsl j)
      done;
      Char.chr !b)

let bn_bytes_roundtrip =
  QCheck.Test.make ~name:"bn to_bytes_le/of_bytes_le roundtrip" ~count:1000
    QCheck.(pair (string_of_size Gen.(0 -- 50)) (int_bound 8))
    (fun (s, pad) ->
      let a = Bn.of_bytes_le s in
      let len = String.length s + pad in
      let enc = Bn.to_bytes_le a ~len in
      let tight = (Bn.num_bits a + 7) / 8 in
      String.equal enc (s ^ String.make pad '\000')
      && String.equal enc (bn_to_bytes_oracle a ~len)
      && Bn.equal (Bn.of_bytes_le enc) a
      && String.equal (Bn.to_bytes_le a ~len:tight) (bn_to_bytes_oracle a ~len:tight))

let test_bn_to_bytes_edges () =
  Alcotest.(check string) "zero, len 0" "" (Bn.to_bytes_le Bn.zero ~len:0);
  let all_ones = Bn.of_bytes_le (String.make 48 '\xff') in
  Alcotest.(check string) "2^384-1" (String.make 48 '\xff') (Bn.to_bytes_le all_ones ~len:48);
  Alcotest.check_raises "does not fit" (Invalid_argument "Bn.to_bytes_le: does not fit")
    (fun () -> ignore (Bn.to_bytes_le all_ones ~len:47))

let test_bn_big_divmod () =
  (* (l * 12345 + 678) divmod l *)
  let l = Sc.l in
  let a = Bn.add (Bn.mul l (Bn.of_int 12345)) (Bn.of_int 678) in
  let q, r = Bn.divmod a l in
  Alcotest.(check bool) "quotient" true (Bn.equal q (Bn.of_int 12345));
  Alcotest.(check bool) "remainder" true (Bn.equal r (Bn.of_int 678))

let test_barrett_matches_divmod () =
  let ctx = Bn.Barrett.create Sc.l in
  let g = Monet_hash.Drbg.of_int 99 in
  for _ = 1 to 50 do
    let x = Bn.of_bytes_le (Monet_hash.Drbg.bytes g 63) in
    let expect = Bn.rem x Sc.l in
    Alcotest.(check bool) "barrett = divmod" true
      (Bn.equal (Bn.Barrett.reduce ctx x) expect)
  done

(* --- Field --- *)

let test_fe_inv () =
  for _ = 1 to 20 do
    let x = Fe.random drbg in
    if not (Fe.is_zero x) then
      Alcotest.(check bool) "x * x^-1 = 1" true (Fe.equal (Fe.mul x (Fe.inv x)) Fe.one)
  done

let test_fe_sqrt () =
  for _ = 1 to 20 do
    let x = Fe.random drbg in
    let x2 = Fe.sq x in
    match Fe.sqrt x2 with
    | None -> Alcotest.fail "square must have a root"
    | Some r -> Alcotest.(check bool) "root squares back" true (Fe.equal (Fe.sq r) x2)
  done

let test_fe_sqrt_m1 () =
  Alcotest.(check bool) "sqrt(-1)^2 = -1" true
    (Fe.equal (Fe.sq Fe.sqrt_m1) (Fe.neg Fe.one))

let test_sc_field_axioms () =
  for _ = 1 to 20 do
    let a = Sc.random drbg and b = Sc.random drbg and c = Sc.random drbg in
    Alcotest.(check bool) "distributivity" true
      (Sc.equal (Sc.mul a (Sc.add b c)) (Sc.add (Sc.mul a b) (Sc.mul a c)));
    Alcotest.(check bool) "add comm" true (Sc.equal (Sc.add a b) (Sc.add b a));
    Alcotest.(check bool) "sub inverse" true (Sc.equal (Sc.sub (Sc.add a b) b) a)
  done

let test_sc_wide_reduction () =
  (* of_bytes_le_wide of l (padded to 64 bytes) is 0 *)
  let lbytes = Bn.to_bytes_le Sc.l ~len:64 in
  Alcotest.(check bool) "l reduces to 0" true (Sc.is_zero (Sc.of_bytes_le_wide lbytes))

(* --- Curve known answers --- *)

let test_base_encoding () =
  Alcotest.(check string) "B encodes canonically"
    "5866666666666666666666666666666666666666666666666666666666666666"
    (Monet_util.Hex.encode (Point.encode Point.base))

let test_double_base () =
  Alcotest.(check string) "2B known vector"
    "c9a3f86aae465f0e56513864510f3997561fa2c9e85ea21dc2292309f3cd6022"
    (Monet_util.Hex.encode (Point.encode (Point.double Point.base)))

let test_order () =
  Alcotest.(check bool) "l*B = O" true (Point.is_identity (Point.mul Sc.l Point.base))

let test_base_on_curve () =
  Alcotest.(check bool) "B on curve" true (Point.is_on_curve Point.base);
  Alcotest.(check bool) "2B on curve" true (Point.is_on_curve (Point.double Point.base))

let test_add_vs_double () =
  Alcotest.(check bool) "B+B = 2B" true
    (Point.equal (Point.add Point.base Point.base) (Point.double Point.base))

let test_mul_small () =
  (* k*B via repeated addition = mul = mul_base, k in 0..20 *)
  let acc = ref Point.identity in
  for k = 0 to 20 do
    let kb = Point.mul (Sc.of_int k) Point.base in
    Alcotest.(check bool) (Printf.sprintf "mul %d" k) true (Point.equal kb !acc);
    Alcotest.(check bool) (Printf.sprintf "mul_base %d" k) true
      (Point.equal (Point.mul_base (Sc.of_int k)) !acc);
    acc := Point.add !acc Point.base
  done

let test_mul_base_matches_mul () =
  for _ = 1 to 10 do
    let k = Sc.random drbg in
    Alcotest.(check bool) "mul_base = mul _ base" true
      (Point.equal (Point.mul_base k) (Point.mul k Point.base))
  done

let test_scalarmult_homomorphic () =
  for _ = 1 to 5 do
    let a = Sc.random drbg and b = Sc.random drbg in
    let lhs = Point.mul_base (Sc.add a b) in
    let rhs = Point.add (Point.mul_base a) (Point.mul_base b) in
    Alcotest.(check bool) "(a+b)B = aB + bB" true (Point.equal lhs rhs)
  done

let test_encode_decode_roundtrip () =
  for _ = 1 to 20 do
    let p = Point.mul_base (Sc.random drbg) in
    let enc = Point.encode p in
    match Point.decode enc with
    | None -> Alcotest.fail "decode failed"
    | Some q ->
        Alcotest.(check bool) "roundtrip" true (Point.equal p q);
        Alcotest.(check string) "re-encode" (Monet_util.Hex.encode enc)
          (Monet_util.Hex.encode (Point.encode q))
  done

let test_decode_rejects_garbage () =
  (* A y-coordinate >= p must be rejected; so must non-residues. *)
  let all_ff = String.make 32 '\xff' in
  Alcotest.(check bool) "all-0xff rejected" true (Point.decode all_ff = None);
  Alcotest.(check bool) "wrong length rejected" true (Point.decode "short" = None)

let test_neg () =
  let p = Point.mul_base (Sc.of_int 5) in
  Alcotest.(check bool) "P + (-P) = O" true
    (Point.is_identity (Point.add p (Point.neg p)));
  Alcotest.(check bool) "-P on curve" true (Point.is_on_curve (Point.neg p))

let test_hash_to_point () =
  let p = Point.hash_to_point "test" "hello" in
  Alcotest.(check bool) "on curve" true (Point.is_on_curve p);
  Alcotest.(check bool) "prime subgroup" true (Point.in_prime_subgroup p);
  let q = Point.hash_to_point "test" "world" in
  Alcotest.(check bool) "distinct inputs, distinct points" true (not (Point.equal p q));
  let p' = Point.hash_to_point "test" "hello" in
  Alcotest.(check bool) "deterministic" true (Point.equal p p')

(* --- Differential: ten-limb Fe vs the Bn-backed reference Fe_ref ---

   Fe_ref is the pre-optimization field kept solely as an oracle; both
   sides are driven from the same 32-byte inputs and compared through
   their canonical encodings. *)

let diff_count = 10_000

(* Interesting boundary encodings: 0, 1, p-1, p, p+1 (the last two are
   non-canonical and must reduce), 2^255-1, values straddling limb
   boundaries, and for the square root the non-residue 2 and ±sqrt(-1). *)
let fe_edge_bytes : string list =
  let le32_of_hex_be h =
    (* Bn.to_bytes_le canonicalizes for us. *)
    Bn.to_bytes_le (Bn.of_hex h) ~len:32
  in
  [
    String.make 32 '\x00';
    "\x01" ^ String.make 31 '\x00';
    le32_of_hex_be "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec";
    le32_of_hex_be "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed";
    le32_of_hex_be "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffee";
    String.make 32 '\xff';
    le32_of_hex_be "0000000000000000000000000000000000000000000000000000000003ffffff";
    le32_of_hex_be "0000000000000000000000000000000000000000000000000000000004000000";
    String.make 16 '\x00' ^ String.make 16 '\xff';
    "\x02" ^ String.make 31 '\x00';
    Fe.to_bytes_le Fe.sqrt_m1;
    Fe.to_bytes_le (Fe.neg Fe.sqrt_m1);
  ]

let check_fe_pair ~what i expect got =
  if not (String.equal expect got) then
    Alcotest.failf "fe differential %s mismatch at case %d: ref %s, fast %s" what i
      (Monet_util.Hex.encode expect) (Monet_util.Hex.encode got)

let test_fe_differential () =
  let g = Monet_hash.Drbg.of_int 7321 in
  let n_edge = List.length fe_edge_bytes in
  let edges = Array.of_list fe_edge_bytes in
  let direct = ref 0 and fixed = ref 0 and nonres = ref 0 in
  for i = 0 to diff_count - 1 do
    (* First cases pair up the edge encodings; the rest are random. *)
    let sa = if i < n_edge * n_edge then edges.(i / n_edge) else Monet_hash.Drbg.bytes g 32 in
    let sb = if i < n_edge * n_edge then edges.(i mod n_edge) else Monet_hash.Drbg.bytes g 32 in
    let a = Fe.of_bytes_le sa and b = Fe.of_bytes_le sb in
    let ar = Fe_ref.of_bytes_le sa and br = Fe_ref.of_bytes_le sb in
    check_fe_pair ~what:"encode" i (Fe_ref.to_bytes_le ar) (Fe.to_bytes_le a);
    check_fe_pair ~what:"add" i
      (Fe_ref.to_bytes_le (Fe_ref.add ar br))
      (Fe.to_bytes_le (Fe.add a b));
    check_fe_pair ~what:"sub" i
      (Fe_ref.to_bytes_le (Fe_ref.sub ar br))
      (Fe.to_bytes_le (Fe.sub a b));
    check_fe_pair ~what:"mul" i
      (Fe_ref.to_bytes_le (Fe_ref.mul ar br))
      (Fe.to_bytes_le (Fe.mul a b));
    check_fe_pair ~what:"sq" i
      (Fe_ref.to_bytes_le (Fe_ref.sq ar))
      (Fe.to_bytes_le (Fe.sq a));
    (* inv and sqrt are addition chains here, Bn-exponent ladders in
       Fe_ref: bit-identical outputs, roots found for the same inputs. *)
    check_fe_pair ~what:"inv" i
      (Fe_ref.to_bytes_le (Fe_ref.inv ar))
      (Fe.to_bytes_le (Fe.inv a));
    match (Fe.sqrt a, Fe_ref.sqrt ar) with
    | None, None -> incr nonres
    | Some x, Some xr ->
        check_fe_pair ~what:"sqrt" i (Fe_ref.to_bytes_le xr) (Fe.to_bytes_le x);
        (* which branch: the candidate a^((p+3)/8) itself, or ·sqrt(-1) *)
        let candidate = Fe.mul a (Fe.pow22523 a) in
        if Fe.equal (Fe.sq candidate) a then incr direct else incr fixed
    | _ -> Alcotest.failf "fe differential sqrt: root existence differs at case %d" i
  done;
  Alcotest.(check bool) "sqrt: direct roots hit" true (!direct > 0);
  Alcotest.(check bool) "sqrt: sqrt(-1) fix-ups hit" true (!fixed > 0);
  Alcotest.(check bool) "sqrt: non-residues hit" true (!nonres > 0)

(* --- RFC 8032 known-answer vectors ---

   Ed25519 public keys are clamp(SHA-512(seed)[0..31])·B, so the test
   vectors from RFC 8032 §7.1 pin down SHA-512, the clamping, scalar
   reduction and the fixed-base comb all at once. *)

let rfc8032_vectors =
  [
    ( "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
      "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a" );
    ( "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
      "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c" );
    ( "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
      "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025" );
  ]

let test_rfc8032_pubkeys () =
  List.iter
    (fun (seed_hex, pk_hex) ->
      let h = Monet_hash.Sha512.digest (Monet_util.Hex.decode seed_hex) in
      let b = Bytes.of_string (String.sub h 0 32) in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
      Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
      (* Reducing the clamped scalar mod l is harmless: B has order l. *)
      let k = Sc.of_bn (Bn.of_bytes_le (Bytes.to_string b)) in
      let pk = Point.mul_base k in
      Alcotest.(check string) "rfc8032 public key" pk_hex
        (Monet_util.Hex.encode (Point.encode pk));
      (* And the encoding must decode back to the same point. *)
      match Point.decode (Monet_util.Hex.decode pk_hex) with
      | None -> Alcotest.fail "rfc8032 pk does not decode"
      | Some q -> Alcotest.(check bool) "decode matches" true (Point.equal pk q))
    rfc8032_vectors

(* --- Straus double-scalar multiplications --- *)

let test_double_mul () =
  for _ = 1 to 50 do
    let a = Sc.random drbg and b = Sc.random drbg in
    let p = Point.mul_base (Sc.random drbg) in
    let expect = Point.add (Point.mul a p) (Point.mul_base b) in
    Alcotest.(check bool) "double_mul = aP + bB" true
      (Point.equal (Point.double_mul a p b) expect)
  done;
  (* Degenerate scalars. *)
  let p = Point.mul_base (Sc.of_int 7) in
  Alcotest.(check bool) "0·P + 0·B = O" true
    (Point.is_identity (Point.double_mul Sc.zero p Sc.zero));
  Alcotest.(check bool) "0·P + 1·B = B" true
    (Point.equal (Point.double_mul Sc.zero p Sc.one) Point.base);
  Alcotest.(check bool) "1·P + 0·B = P" true
    (Point.equal (Point.double_mul Sc.one p Sc.zero) p)

let test_mul2 () =
  for _ = 1 to 50 do
    let a = Sc.random drbg and b = Sc.random drbg in
    let p = Point.mul_base (Sc.random drbg) in
    let q = Point.hash_to_point "mul2-test" (Sc.to_bytes_le b) in
    let expect = Point.add (Point.mul a p) (Point.mul b q) in
    Alcotest.(check bool) "mul2 = aP + bQ" true
      (Point.equal (Point.mul2 a p b q) expect)
  done

let test_is_identity () =
  Alcotest.(check bool) "identity" true (Point.is_identity Point.identity);
  Alcotest.(check bool) "double identity" true
    (Point.is_identity (Point.double Point.identity));
  Alcotest.(check bool) "O + O" true
    (Point.is_identity (Point.add Point.identity Point.identity));
  Alcotest.(check bool) "B not identity" false (Point.is_identity Point.base);
  (* A point with non-trivial Z: l·P for random subgroup P. *)
  let p = Point.mul_base (Sc.random drbg) in
  Alcotest.(check bool) "l·P = O" true (Point.is_identity (Point.mul Sc.l p));
  Alcotest.(check bool) "P + (-P) = O" true
    (Point.is_identity (Point.add p (Point.neg p)))

(* --- Pippenger multi-scalar multiplication ---

   Differential against the naive Σ kᵢ·Pᵢ evaluation, 10k scalar/point
   terms total spread over batch sizes 1…512 (the bucketed path starts
   at n ≥ 4, so the small sizes exercise the Straus fallback too).
   Term generation salts in the degenerate shapes the bucket logic has
   to survive: zero scalars, identity points, repeated points, and
   ±P pairs that cancel. *)

let test_msm_differential () =
  let g = Monet_hash.Drbg.of_int 0x6d736d in
  let sizes = [ 1; 2; 3; 4; 5; 7; 8; 16; 33; 64; 128; 256; 512 ] in
  let target = 10_000 in
  let done_terms = ref 0 in
  let case = ref 0 in
  while !done_terms < target do
    let n = List.nth sizes (!case mod List.length sizes) in
    let terms =
      Array.init n (fun i ->
          let k =
            match Monet_hash.Drbg.int g 8 with
            | 0 -> Sc.zero
            | 1 -> Sc.one
            | 2 -> Sc.of_int (Monet_hash.Drbg.int g 1000)
            | _ -> Sc.random g
          in
          let p =
            match Monet_hash.Drbg.int g 8 with
            | 0 -> Point.identity
            | 1 -> Point.base
            | 2 when i > 0 -> Point.mul_base (Sc.of_int 42) (* repeats *)
            | _ -> Point.mul_base (Sc.random g)
          in
          (k, p))
    in
    (* Every other case appends a cancelling ±P pair. *)
    let terms =
      if !case land 1 = 0 && n >= 2 then begin
        let k = Sc.random g and p = Point.mul_base (Sc.random g) in
        terms.(n - 2) <- (k, p);
        terms.(n - 1) <- (k, Point.neg p);
        terms
      end
      else terms
    in
    let naive =
      Array.fold_left
        (fun acc (k, p) -> Point.add acc (Point.mul k p))
        Point.identity terms
    in
    let fast = Point.msm terms in
    if not (Point.equal naive fast) then
      Alcotest.failf "msm differential mismatch at case %d (n=%d)" !case n;
    done_terms := !done_terms + n;
    incr case
  done;
  (* Empty batch. *)
  Alcotest.(check bool) "msm [] = O" true (Point.is_identity (Point.msm [||]))

(* The encoding memo: a point's cached encoding must always be the
   encoding of its own coordinates. [fresh] rebuilds a point through a
   constructor (p + O), so its encode is computed, never recalled. *)
let fresh p = Point.add p Point.identity

let check_enc what expect got =
  Alcotest.(check string) what (Monet_util.Hex.encode expect) (Monet_util.Hex.encode got)

(* encode_batch over a mix of memoised and fresh points (and negations
   of memoised ones) equals a from-scratch encode of each point, and
   leaves those encodings in the memo. *)
let test_encode_batch () =
  let g = Monet_hash.Drbg.of_int 0x656e63 in
  for n = 0 to 9 do
    let ps =
      Array.init n (fun i ->
          if i = 0 then Point.identity else Point.mul_base (Sc.random g))
    in
    Array.iteri (fun i p -> if i mod 3 = 1 then ignore (Point.encode p)) ps;
    let ps = Array.append ps (Array.map Point.neg (Array.sub ps 0 (n / 2))) in
    let expect = Array.map (fun p -> Point.encode (fresh p)) ps in
    let batch = Point.encode_batch ps in
    Array.iteri
      (fun i e ->
        check_enc (Printf.sprintf "encode_batch n=%d i=%d" n i) e batch.(i);
        check_enc (Printf.sprintf "memo after encode_batch n=%d i=%d" n i) e
          (Point.encode ps.(i)))
      expect
  done

let test_encode_memo () =
  let g = Monet_hash.Drbg.of_int 0x6d656d in
  for i = 0 to 19 do
    let p = Point.mul_base (Sc.random g) in
    let e = Point.encode p in
    check_enc "memo = recompute" (Point.encode (fresh p)) e;
    check_enc "memo recalled" e (Point.encode p);
    (* neg of an encoded point: the memo must not be inherited *)
    let n = Point.neg p in
    check_enc (Printf.sprintf "encode (neg p) #%d" i) (Point.encode (Point.neg (fresh p)))
      (Point.encode n);
    Alcotest.(check bool) "neg flips the sign bit" true
      (Point.encode n <> e && String.sub (Point.encode n) 0 31 = String.sub e 0 31);
    check_enc "neg (neg p)" e (Point.encode (Point.neg n));
    (* decode seeds the memo with its (canonical) input *)
    (match Point.decode e with
    | None -> Alcotest.fail "decode failed"
    | Some q ->
        check_enc "decode-seeded memo" e (Point.encode q);
        check_enc "decode-seeded = fresh" e (Point.encode (fresh q));
        check_enc "neg of decoded" (Point.encode n) (Point.encode (Point.neg q)));
    (* every other constructor starts without a memo *)
    check_enc "double" (Point.encode (Point.double (fresh p))) (Point.encode (Point.double p));
    check_enc "add" (Point.encode (Point.add (fresh p) Point.base))
      (Point.encode (Point.add p Point.base));
    check_enc "sub_point" (Point.encode (Point.add (fresh p) (Point.neg Point.base)))
      (Point.encode (Point.sub_point p Point.base))
  done;
  check_enc "identity" ("\x01" ^ String.make 31 '\x00') (Point.encode Point.identity);
  check_enc "identity again" ("\x01" ^ String.make 31 '\x00') (Point.encode Point.identity);
  (* normalize_batch and msm outputs, from memoised inputs *)
  let ps = Array.init 12 (fun _ -> Point.mul_base (Sc.random g)) in
  let expect = Array.map Point.encode ps in
  let norm = Point.normalize_batch ps in
  Array.iteri
    (fun i e -> check_enc (Printf.sprintf "normalize_batch #%d" i) e (Point.encode norm.(i)))
    expect;
  let terms = Array.map (fun p -> (Sc.random g, p)) ps in
  let naive =
    Array.fold_left (fun acc (k, p) -> Point.add acc (Point.mul k p)) Point.identity terms
  in
  let m = Point.msm terms in
  check_enc "msm" (Point.encode (fresh naive)) (Point.encode m);
  check_enc "neg msm" (Point.encode (Point.neg (fresh naive))) (Point.encode (Point.neg m))

(* --- Z_l* chain arithmetic --- *)

let test_zl_pow_homomorphic () =
  let h = Zl.default_base in
  for _ = 1 to 5 do
    let a = Zl.Exp.random drbg and b = Zl.Exp.random drbg in
    let lhs = Zl.pow h (Zl.Exp.add a b) in
    let rhs = Sc.mul (Zl.pow h a) (Zl.pow h b) in
    Alcotest.(check bool) "h^(a+b) = h^a * h^b" true (Sc.equal lhs rhs)
  done

let test_zl_pow_small () =
  Alcotest.(check bool) "h^3 = h*h*h" true
    (Sc.equal
       (Zl.pow Zl.default_base (Bn.of_int 3))
       (Sc.mul Zl.default_base (Sc.mul Zl.default_base Zl.default_base)))

(* Zl.pow (Montgomery comb) against Barrett square-and-multiply: one
   exponent of every width 0..384 bits, ℓ-1, 2^384-1, and widths past
   the comb's 384 bits (the Barrett fallback), for the default base and
   a random one. *)
let test_zl_pow_differential () =
  let g = Monet_hash.Drbg.of_int 0x7a6c in
  let ctx = Bn.Barrett.create Sc.l in
  let random_bits b =
    if b = 0 then Bn.zero
    else
      let x = Bn.of_bytes_le (Monet_hash.Drbg.bytes g ((b + 7) / 8)) in
      let x = Bn.rem x (Bn.shift_left_bits Bn.one (b - 1)) in
      Bn.add x (Bn.shift_left_bits Bn.one (b - 1))
  in
  let exps =
    List.init 385 random_bits
    @ [ Bn.sub Sc.l Bn.one; Bn.of_bytes_le (String.make 48 '\xff'); random_bits 385;
        random_bits 512; Bn.of_bytes_le (String.make 64 '\xff') ]
  in
  List.iter
    (fun h ->
      List.iter
        (fun x ->
          let got = Zl.pow h x and expect = Bn.Barrett.pow_mod ctx h x in
          if not (Bn.equal got expect) then
            Alcotest.failf "zl pow mismatch: h=%s x=%s (%d bits): %s vs %s" (Bn.to_hex h)
              (Bn.to_hex x) (Bn.num_bits x) (Bn.to_hex got) (Bn.to_hex expect))
        exps)
    [ Zl.default_base; Sc.random g ]

let tests =
  [
    qtest bn_roundtrip;
    qtest bn_add;
    qtest bn_sub;
    qtest bn_mul;
    qtest bn_divmod;
    qtest bn_hex_roundtrip;
    qtest bn_shifts;
    qtest bn_bytes_roundtrip;
    Alcotest.test_case "bn to_bytes_le edges" `Quick test_bn_to_bytes_edges;
    Alcotest.test_case "bn big divmod" `Quick test_bn_big_divmod;
    Alcotest.test_case "barrett reduction" `Quick test_barrett_matches_divmod;
    Alcotest.test_case "fe inverse" `Quick test_fe_inv;
    Alcotest.test_case "fe sqrt" `Quick test_fe_sqrt;
    Alcotest.test_case "fe sqrt(-1)" `Quick test_fe_sqrt_m1;
    Alcotest.test_case "sc field axioms" `Quick test_sc_field_axioms;
    Alcotest.test_case "sc wide reduction" `Quick test_sc_wide_reduction;
    Alcotest.test_case "base encoding" `Quick test_base_encoding;
    Alcotest.test_case "2B vector" `Quick test_double_base;
    Alcotest.test_case "group order" `Quick test_order;
    Alcotest.test_case "on-curve checks" `Quick test_base_on_curve;
    Alcotest.test_case "add vs double" `Quick test_add_vs_double;
    Alcotest.test_case "small multiples" `Quick test_mul_small;
    Alcotest.test_case "mul_base consistency" `Quick test_mul_base_matches_mul;
    Alcotest.test_case "scalar mult homomorphic" `Quick test_scalarmult_homomorphic;
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
    Alcotest.test_case "negation" `Quick test_neg;
    Alcotest.test_case "hash to point" `Quick test_hash_to_point;
    Alcotest.test_case "fe differential vs ref" `Quick test_fe_differential;
    Alcotest.test_case "rfc8032 public keys" `Quick test_rfc8032_pubkeys;
    Alcotest.test_case "double_mul (Straus aP+bB)" `Quick test_double_mul;
    Alcotest.test_case "mul2 (Straus aP+bQ)" `Quick test_mul2;
    Alcotest.test_case "is_identity" `Quick test_is_identity;
    Alcotest.test_case "msm differential (10k terms)" `Slow test_msm_differential;
    Alcotest.test_case "encode_batch matches encode" `Quick test_encode_batch;
    Alcotest.test_case "encode memo" `Quick test_encode_memo;
    Alcotest.test_case "zl pow homomorphic" `Quick test_zl_pow_homomorphic;
    Alcotest.test_case "zl pow small" `Quick test_zl_pow_small;
    Alcotest.test_case "zl pow vs barrett" `Quick test_zl_pow_differential;
  ]
