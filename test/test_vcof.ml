(* VCOF property tests: consecutiveness, consecutive verifiability,
   one-wayness structure; chain batching; CAS; 2P-CLRAS. *)
open Monet_ec
open Monet_vcof

let drbg = Monet_hash.Drbg.of_int 31337
let reps = Some 16 (* reduced soundness for fast tests; one test runs defaults *)

let test_consecutiveness () =
  let p0 = Vcof.sw_gen drbg in
  let p1, _ = Vcof.new_sw ?reps drbg p0 ~pp:Vcof.default_pp in
  (* Forward derivation matches NewSW's witness. *)
  Alcotest.(check bool) "derive = new_sw witness" true
    (Sc.equal p1.Vcof.wit (Vcof.derive ~pp:Vcof.default_pp p0.Vcof.wit));
  Alcotest.(check bool) "statement opens" true (Vcof.opens p1.Vcof.stmt p1.Vcof.wit)

let test_cvrfy () =
  let p0 = Vcof.sw_gen drbg in
  let p1, proof = Vcof.new_sw ?reps drbg p0 ~pp:Vcof.default_pp in
  Alcotest.(check bool) "accepts honest step" true
    (Vcof.c_vrfy ~pp:Vcof.default_pp ~prev:p0.Vcof.stmt ~next:p1.Vcof.stmt proof);
  (* A non-consecutive statement pair must be rejected. *)
  let other = Vcof.sw_gen drbg in
  Alcotest.(check bool) "rejects wrong next" false
    (Vcof.c_vrfy ~pp:Vcof.default_pp ~prev:p0.Vcof.stmt ~next:other.Vcof.stmt proof);
  Alcotest.(check bool) "rejects wrong prev" false
    (Vcof.c_vrfy ~pp:Vcof.default_pp ~prev:other.Vcof.stmt ~next:p1.Vcof.stmt proof)

let test_one_wayness_shape () =
  (* Structural test of one-wayness: distinct roots lead to distinct
     chains, and knowing pair i+1 plus the public pp regenerates the
     forward chain but there is no inverse map — check the forward map
     is not trivially invertible by confirming it is not the identity
     and not linear (f(a+b) != f(a)+f(b)). *)
  let pp = Vcof.default_pp in
  let a = Sc.random_nonzero drbg and b = Sc.random_nonzero drbg in
  Alcotest.(check bool) "not identity" false (Sc.equal (Vcof.derive ~pp a) a);
  Alcotest.(check bool) "not additive" false
    (Sc.equal (Vcof.derive ~pp (Sc.add a b)) (Sc.add (Vcof.derive ~pp a) (Vcof.derive ~pp b)));
  (* h^(a+b mod ℓ-1) = h^a * h^b: the exponent ring is Z_{ℓ-1}, not
     Z_ℓ — the dlog structure underlying one-wayness. *)
  Alcotest.(check bool) "multiplicative in exponent ring" true
    (Sc.equal
       (Vcof.derive ~pp (Zl.Exp.add (Zl.exp_of_scalar a) (Zl.exp_of_scalar b)))
       (Sc.mul (Vcof.derive ~pp a) (Vcof.derive ~pp b)))

let test_derive_n () =
  let pp = Vcof.default_pp in
  let w = Sc.random_nonzero drbg in
  let w3 = Vcof.derive ~pp (Vcof.derive ~pp (Vcof.derive ~pp w)) in
  Alcotest.(check bool) "derive_n composes" true (Sc.equal (Vcof.derive_n ~pp w 3) w3);
  Alcotest.(check bool) "derive_n 0 = id" true (Sc.equal (Vcof.derive_n ~pp w 0) w)

let test_randomize () =
  let p = Vcof.sw_gen drbg in
  let r = Sc.random_nonzero drbg in
  let p' = Vcof.randomize p ~r in
  Alcotest.(check bool) "randomized opens" true (Vcof.opens p'.Vcof.stmt p'.Vcof.wit);
  Alcotest.(check bool) "statement changed" false (Point.equal p.Vcof.stmt p'.Vcof.stmt)

let test_chain_precompute_and_verify () =
  let c = Chain.precompute ?reps drbg ~n:5 in
  Alcotest.(check int) "length" 6 (Chain.length c);
  (* Every pair opens; adjacent witnesses obey the chain map. *)
  for i = 0 to 5 do
    Alcotest.(check bool) "opens" true (Vcof.opens (Chain.statement c i) (Chain.witness c i))
  done;
  for i = 0 to 4 do
    Alcotest.(check bool) "chained" true
      (Sc.equal (Chain.witness c (i + 1)) (Vcof.derive ~pp:Vcof.default_pp (Chain.witness c i)))
  done;
  let pub = Chain.publish c in
  Alcotest.(check bool) "public batch verifies" true (Chain.verify_public pub);
  Alcotest.(check bool) "proof bytes accounted" true (Chain.total_proof_bytes pub > 0)

let test_chain_tamper_rejected () =
  let c = Chain.precompute ?reps drbg ~n:3 in
  let pub = Chain.publish c in
  let bad =
    { pub with
      Chain.statements =
        Array.mapi
          (fun i s -> if i = 2 then Point.mul_base (Sc.random_nonzero drbg) else s)
          pub.Chain.statements
    }
  in
  Alcotest.(check bool) "tampered statement rejected" false (Chain.verify_public bad)

let test_chain_witness_only () =
  let pairs = Chain.precompute_witnesses drbg ~n:100 in
  Alcotest.(check int) "101 pairs" 101 (Array.length pairs);
  Alcotest.(check bool) "all open" true
    (Array.for_all (fun p -> Vcof.opens p.Vcof.stmt p.Vcof.wit) pairs)

let test_cvrfy_batch () =
  (* A burst of consecutive chain steps under one pp: the batched
     verifier folds all 80-rep Stadler transcripts into one MSM and
     must agree with per-step c_vrfy — including when exactly one
     triple is wrong. *)
  let pp = Vcof.default_pp in
  let n = 6 in
  let pairs = Array.make (n + 1) (Vcof.sw_gen drbg) in
  let proofs =
    Array.init n (fun i ->
        let next, proof = Vcof.new_sw ?reps drbg pairs.(i) ~pp in
        pairs.(i + 1) <- next;
        proof)
  in
  let steps =
    Array.init n (fun i ->
        (pairs.(i).Vcof.stmt, pairs.(i + 1).Vcof.stmt, proofs.(i)))
  in
  Alcotest.(check bool) "honest burst accepts" true (Vcof.c_vrfy_batch ~pp steps);
  Alcotest.(check bool) "per-step agrees" true
    (Array.for_all
       (fun (prev, next, proof) -> Vcof.c_vrfy ~pp ~prev ~next proof)
       steps);
  Alcotest.(check bool) "empty burst accepts" true (Vcof.c_vrfy_batch ~pp [||]);
  let other = Vcof.sw_gen drbg in
  for bad = 0 to n - 1 do
    let corrupt = Array.copy steps in
    let prev, _, proof = steps.(bad) in
    corrupt.(bad) <- (prev, other.Vcof.stmt, proof);
    Alcotest.(check bool)
      (Printf.sprintf "wrong next at step %d rejects" bad)
      false (Vcof.c_vrfy_batch ~pp corrupt)
  done

(* --- CAS (Algorithm 1, single-signer) --- *)

let test_cas_lifecycle () =
  let pp = Vcof.default_pp in
  let p0 = Vcof.sw_gen drbg in
  let kp = Monet_sig.Sig_core.gen drbg in
  let pre0 = Monet_sig.Adaptor.pre_sign drbg kp "m0" ~stmt:p0.Vcof.stmt in
  Alcotest.(check bool) "p_vrfy" true
    (Monet_sig.Adaptor.pre_verify kp.vk "m0" ~stmt:p0.Vcof.stmt pre0);
  let p1, proof1 = Vcof.new_sw ?reps drbg p0 ~pp in
  Alcotest.(check bool) "consecutive" true
    (Vcof.c_vrfy ~pp ~prev:p0.Vcof.stmt ~next:p1.Vcof.stmt proof1);
  let pre1 = Monet_sig.Adaptor.pre_sign drbg kp "m1" ~stmt:p1.Vcof.stmt in
  let sg1 = Monet_sig.Adaptor.adapt pre1 ~y:p1.Vcof.wit in
  Alcotest.(check bool) "adapted verifies" true
    (Monet_sig.Sig_core.verify kp.vk "m1" sg1);
  (* Revealing w0 exposes the following witness by forward derivation. *)
  let w1 = Vcof.derive_n ~pp p0.Vcof.wit 1 in
  Alcotest.(check bool) "forward derivation exposes w1" true (Sc.equal w1 p1.Vcof.wit);
  let sg1' = Monet_sig.Adaptor.adapt pre1 ~y:w1 in
  Alcotest.(check bool) "old witness adapts newer presig" true
    (Monet_sig.Sig_core.verify kp.vk "m1" sg1')

(* --- 2P-CLRAS --- *)

let make_parties () =
  match
    Monet_sig.Two_party.run_jgen (Monet_hash.Drbg.split drbg "A") (Monet_hash.Drbg.split drbg "B")
  with
  | Ok (ja, jb) -> (ja, jb)
  | Error e -> Alcotest.failf "jgen: %s" e

let exchange sta stb (ma, mb) =
  (match Monet_cas.Clras.receive sta mb with
  | Ok () -> ()
  | Error e -> Alcotest.failf "A receive: %s" e);
  match Monet_cas.Clras.receive stb ma with
  | Ok () -> ()
  | Error e -> Alcotest.failf "B receive: %s" e

let test_clras_full_session () =
  let ja, jb = make_parties () in
  let ga = Monet_hash.Drbg.split drbg "ga" and gb = Monet_hash.Drbg.split drbg "gb" in
  let sta, ma0 = Monet_cas.Clras.init ?reps ga ja in
  let stb, mb0 = Monet_cas.Clras.init ?reps gb jb in
  exchange sta stb (ma0, mb0);
  Alcotest.(check bool) "joint statements agree" true
    (Monet_sig.Stmt.equal (Monet_cas.Clras.joint_stmt sta) (Monet_cas.Clras.joint_stmt stb));
  (* Ring with the joint key and decoys. *)
  let ring =
    Array.init 11 (fun i ->
        if i = 4 then ja.Monet_sig.Two_party.vk else Point.mul_base (Sc.random_nonzero drbg))
  in
  let stmt = Monet_cas.Clras.joint_stmt sta in
  (match
     Monet_sig.Two_party.run_psign ga gb ~alice:ja ~bob:jb ~ring ~pi:4 ~msg:"ctx-0" ~stmt
   with
  | Error e -> Alcotest.failf "psign: %s" e
  | Ok pre ->
      Alcotest.(check bool) "state-0 presig pre-verifies" true
        (Monet_sig.Lsag.pre_verify ~ring ~msg:"ctx-0" ~stmt pre);
      (* Advance both chains to state 1. *)
      let ma1 = Monet_cas.Clras.advance ga sta in
      let mb1 = Monet_cas.Clras.advance gb stb in
      exchange sta stb (ma1, mb1);
      let stmt1 = Monet_cas.Clras.joint_stmt sta in
      (match
         Monet_sig.Two_party.run_psign ga gb ~alice:ja ~bob:jb ~ring ~pi:4 ~msg:"ctx-1"
           ~stmt:stmt1
       with
      | Error e -> Alcotest.failf "psign1: %s" e
      | Ok pre1 ->
          (* Cooperative close: exchange witnesses, adapt. *)
          let wa = Monet_cas.Clras.my_witness sta and wb = Monet_cas.Clras.my_witness stb in
          Alcotest.(check bool) "A's witness opens at B" true
            (Monet_cas.Clras.witness_opens stb wa);
          Alcotest.(check bool) "B's witness opens at A" true
            (Monet_cas.Clras.witness_opens sta wb);
          let sg = Monet_cas.Clras.adapt pre1 ~wa ~wb in
          Alcotest.(check bool) "closing signature verifies on-chain" true
            (Monet_sig.Lsag.verify ~ring ~msg:"ctx-1" sg);
          (* Extraction recovers the combined witness. *)
          Alcotest.(check bool) "ext" true
            (Sc.equal (Monet_cas.Clras.ext sg pre1) (Sc.add wa wb));
          (* Revocation: if B closes with the state-0 signature, A can
             derive B's state-1 witness from the extracted state-0 one. *)
          let sg0 = Monet_cas.Clras.adapt pre ~wa:(Sc.sub (Monet_cas.Clras.ext sg pre1) wb)
                      ~wb:Sc.zero in
          ignore sg0;
          ()))

let test_clras_revocation () =
  (* Full revocation scenario at the CLRAS level: B publishes state-0;
     A extracts the combined state-0 witness, subtracts her own state-0
     witness to get B's, derives B's state-1 witness forward, and
     adapts the state-1 presignature alone. *)
  let ja, jb = make_parties () in
  let ga = Monet_hash.Drbg.split drbg "g1" and gb = Monet_hash.Drbg.split drbg "g2" in
  let sta, ma0 = Monet_cas.Clras.init ?reps ga ja in
  let stb, mb0 = Monet_cas.Clras.init ?reps gb jb in
  exchange sta stb (ma0, mb0);
  let ring =
    Array.init 5 (fun i ->
        if i = 2 then ja.Monet_sig.Two_party.vk else Point.mul_base (Sc.random_nonzero drbg))
  in
  let wa0 = Monet_cas.Clras.my_witness sta and wb0 = Monet_cas.Clras.my_witness stb in
  let stmt0 = Monet_cas.Clras.joint_stmt sta in
  let pre0 =
    match Monet_sig.Two_party.run_psign ga gb ~alice:ja ~bob:jb ~ring ~pi:2 ~msg:"tx0" ~stmt:stmt0 with
    | Ok p -> p
    | Error e -> Alcotest.failf "psign0: %s" e
  in
  let ma1 = Monet_cas.Clras.advance ga sta and mb1 = Monet_cas.Clras.advance gb stb in
  exchange sta stb (ma1, mb1);
  let stmt1 = Monet_cas.Clras.joint_stmt sta in
  let pre1 =
    match Monet_sig.Two_party.run_psign ga gb ~alice:ja ~bob:jb ~ring ~pi:2 ~msg:"tx1" ~stmt:stmt1 with
    | Ok p -> p
    | Error e -> Alcotest.failf "psign1: %s" e
  in
  (* B cheats: publishes the old state-0 signature. *)
  let cheat = Monet_cas.Clras.adapt pre0 ~wa:wa0 ~wb:wb0 in
  Alcotest.(check bool) "cheating close verifies" true
    (Monet_sig.Lsag.verify ~ring ~msg:"tx0" cheat);
  (* A extracts and punishes. *)
  let combined0 = Monet_cas.Clras.ext cheat pre0 in
  let wb0' = Sc.sub combined0 wa0 in
  Alcotest.(check bool) "B's old witness recovered" true (Sc.equal wb0' wb0);
  let wb1 = Monet_cas.Clras.derive_forward sta ~their_wit:wb0' ~steps:1 in
  let wa1 = Monet_cas.Clras.my_witness sta in
  let latest = Monet_cas.Clras.adapt pre1 ~wa:wa1 ~wb:wb1 in
  Alcotest.(check bool) "A can sign the latest state alone" true
    (Monet_sig.Lsag.verify ~ring ~msg:"tx1" latest)

let test_clras_rejects_bad_step () =
  let ja, jb = make_parties () in
  let ga = Monet_hash.Drbg.split drbg "x1" and gb = Monet_hash.Drbg.split drbg "x2" in
  let sta, ma0 = Monet_cas.Clras.init ?reps ga ja in
  let stb, mb0 = Monet_cas.Clras.init ?reps gb jb in
  exchange sta stb (ma0, mb0);
  let ma1 = Monet_cas.Clras.advance ga sta in
  (* Tamper: replace the statement with a fresh non-consecutive one. *)
  let fresh = Monet_vcof.Vcof.sw_gen ga in
  let forged =
    { ma1 with
      Monet_cas.Clras.sm_stmt =
        { Monet_sig.Stmt.yg = fresh.Monet_vcof.Vcof.stmt;
          yhp = Point.mul fresh.Monet_vcof.Vcof.wit jb.Monet_sig.Two_party.hp }
    }
  in
  (match Monet_cas.Clras.receive stb forged with
  | Ok () -> Alcotest.fail "forged statement accepted"
  | Error _ -> ());
  (* The honest message still goes through. *)
  match Monet_cas.Clras.receive stb ma1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest rejected: %s" e

let tests =
  [
    Alcotest.test_case "consecutiveness" `Quick test_consecutiveness;
    Alcotest.test_case "cvrfy" `Quick test_cvrfy;
    Alcotest.test_case "cvrfy batch" `Quick test_cvrfy_batch;
    Alcotest.test_case "one-wayness shape" `Quick test_one_wayness_shape;
    Alcotest.test_case "derive_n" `Quick test_derive_n;
    Alcotest.test_case "randomize" `Quick test_randomize;
    Alcotest.test_case "chain precompute" `Quick test_chain_precompute_and_verify;
    Alcotest.test_case "chain tamper" `Quick test_chain_tamper_rejected;
    Alcotest.test_case "chain witness-only" `Quick test_chain_witness_only;
    Alcotest.test_case "cas lifecycle" `Quick test_cas_lifecycle;
    Alcotest.test_case "2p-clras session" `Quick test_clras_full_session;
    Alcotest.test_case "2p-clras revocation" `Quick test_clras_revocation;
    Alcotest.test_case "2p-clras bad step" `Quick test_clras_rejects_bad_step;
  ]
