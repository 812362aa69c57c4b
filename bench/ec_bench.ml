(* EC kernel benchmark — the tracked baseline for the ten-limb field
   and the wNAF/Straus scalar-multiplication rewrite (DESIGN.md §3.5).

   Emits BENCH_ec.json with ops/sec for the hot EC operations next to
   the seed implementation (Bn-backed field, 4-bit windowed ladder),
   which is re-run in-process from Fe_ref plus an inline copy of the
   original point arithmetic. The committed BENCH_ec.json at the repo
   root is produced by running this without flags:

     dune exec bench/ec_bench.exe -- -o BENCH_ec.json

   `--smoke` runs everything with tiny iteration counts and then
   re-reads the emitted file through the shared codec
   (Monet_util.Json), failing if it is malformed or missing a
   measurement — wired into `dune build
   @bench-smoke` (and the `check` alias) as a cheap regression guard. *)

module Ch = Monet_channel.Channel
open Monet_ec
open Monet_util

let drbg = Monet_hash.Drbg.of_int 0xec511

(* --- Seed implementation (the baseline side) ----------------------

   A verbatim-in-spirit copy of the pre-optimization point arithmetic,
   instantiated over Fe_ref: extended coordinates with the same
   add-2008-hwcd-3 / dbl-2008-hwcd formulas, and the original 4-bit
   windowed ladder for both variable-base and fixed-base. *)

module Ref_point = struct
  type t = { x : Fe_ref.t; y : Fe_ref.t; z : Fe_ref.t; t : Fe_ref.t }

  let identity = { x = Fe_ref.zero; y = Fe_ref.one; z = Fe_ref.one; t = Fe_ref.zero }

  let of_affine x y = { x; y; z = Fe_ref.one; t = Fe_ref.mul x y }

  let base =
    of_affine
      (Fe_ref.of_hex "216936d3cd6e53fec0a4e231fdd6dc5c692cc7609525a7b2c9562d608f25d51a")
      (Fe_ref.of_hex "6666666666666666666666666666666666666666666666666666666666666658")

  let d2 = Fe_ref.add Fe_ref.d Fe_ref.d

  let add (p : t) (q : t) : t =
    let a = Fe_ref.mul (Fe_ref.sub p.y p.x) (Fe_ref.sub q.y q.x) in
    let b = Fe_ref.mul (Fe_ref.add p.y p.x) (Fe_ref.add q.y q.x) in
    let c = Fe_ref.mul (Fe_ref.mul p.t d2) q.t in
    let dd = Fe_ref.mul (Fe_ref.add p.z p.z) q.z in
    let e = Fe_ref.sub b a in
    let f = Fe_ref.sub dd c in
    let g = Fe_ref.add dd c in
    let h = Fe_ref.add b a in
    { x = Fe_ref.mul e f; y = Fe_ref.mul g h; t = Fe_ref.mul e h; z = Fe_ref.mul f g }

  let double (p : t) : t =
    let a = Fe_ref.sq p.x in
    let b = Fe_ref.sq p.y in
    let z2 = Fe_ref.sq p.z in
    let c = Fe_ref.add z2 z2 in
    let dd = Fe_ref.neg a in
    let e = Fe_ref.sub (Fe_ref.sub (Fe_ref.sq (Fe_ref.add p.x p.y)) a) b in
    let g = Fe_ref.add dd b in
    let f = Fe_ref.sub g c in
    let h = Fe_ref.sub dd b in
    { x = Fe_ref.mul e f; y = Fe_ref.mul g h; t = Fe_ref.mul e h; z = Fe_ref.mul f g }

  (* The seed's variable-time 4-bit windowed ladder. *)
  let mul (k : Sc.t) (p : t) : t =
    let n = Bn.num_bits k in
    if n = 0 then identity
    else begin
      let table = Array.make 15 p in
      for j = 1 to 14 do
        table.(j) <- add table.(j - 1) p
      done;
      let windows = (n + 3) / 4 in
      let acc = ref identity in
      for w = windows - 1 downto 0 do
        acc := double (double (double (double !acc)));
        let digit =
          (if Bn.testbit k ((4 * w) + 3) then 8 else 0)
          lor (if Bn.testbit k ((4 * w) + 2) then 4 else 0)
          lor (if Bn.testbit k ((4 * w) + 1) then 2 else 0)
          lor if Bn.testbit k (4 * w) then 1 else 0
        in
        if digit <> 0 then acc := add !acc table.(digit - 1)
      done;
      !acc
    end

  (* The seed's fixed-base table: table.(w).(j) = (j+1)·16^w·B. *)
  let base_table : t array array lazy_t =
    lazy
      (Array.init 64 (fun w ->
           let step = ref base in
           for _ = 1 to 4 * w do
             step := double !step
           done;
           let row = Array.make 15 identity in
           row.(0) <- !step;
           for j = 1 to 14 do
             row.(j) <- add row.(j - 1) !step
           done;
           row))

  let mul_base (k : Sc.t) : t =
    let table = Lazy.force base_table in
    let acc = ref identity in
    let bytes = Sc.to_bytes_le k in
    for i = 0 to 31 do
      let byte = Char.code bytes.[i] in
      let lo = byte land 0xf and hi = byte lsr 4 in
      if lo <> 0 then acc := add !acc table.(2 * i).(lo - 1);
      if hi <> 0 then acc := add !acc table.((2 * i) + 1).(hi - 1)
    done;
    !acc

  let double_mul (a : Sc.t) (p : t) (b : Sc.t) : t = add (mul a p) (mul b base)
end

(* --- Measurement --------------------------------------------------- *)

let ops_per_sec ~iters (f : unit -> unit) : float =
  f () (* warm up: forces lazy tables, fills caches *);
  let (), ms =
    Monet_obs.Trace.timed (fun () ->
        for _ = 1 to iters do
          f ()
        done)
  in
  float_of_int iters /. Float.max (ms /. 1000.0) 1e-9

type entry = {
  name : string;
  ops : float;
  baseline : float option; (* seed implementation, same machine *)
  note : string option;
}

let entry ?baseline ?note name ops = { name; ops; baseline; note }

let speedup (e : entry) : float option =
  match e.baseline with
  | Some b when b > 0.0 -> Some (e.ops /. b)
  | _ -> None

(* --- JSON out ------------------------------------------------------ *)

let json_of_entries ~mode (entries : entry list) : Json.t =
  let f2 = Json.fixed ~decimals:2 in
  let result e =
    ( e.name,
      Json.Obj
        ([ ("ops_per_sec", f2 e.ops) ]
        @ (match e.baseline with
          | Some bl -> [ ("baseline_ops_per_sec", f2 bl); ("speedup", f2 (e.ops /. bl)) ]
          | None -> [])
        @ match e.note with Some n -> [ ("note", Json.Str n) ] | None -> []) )
  in
  Json.Obj
    [ ("schema", Json.Str "monet-ec-bench/1");
      ("mode", Json.Str mode);
      ("unit", Json.Str "ops_per_sec");
      ("obs_registry", Json.Str "disabled");
      ("results", Json.Obj (List.map result entries)) ]

(* The monet-ec-bench/1 shape --smoke checks the written file against:
   every measurement of the suite present, each with a rate. *)
let doc_spec =
  let open Json.Spec in
  let result =
    Object
      [ ("ops_per_sec", Number); ("baseline_ops_per_sec", Optional Number);
        ("speedup", Optional Number); ("note", Optional String) ]
  in
  Object
    [ ("schema", tag "monet-ec-bench/1");
      ("obs_registry", tag "disabled");
      ("results",
        Object
          (List.map
             (fun k -> (k, result))
             [ "fe_mul"; "fe_mul_vs_specialized"; "point_mul"; "mul_base";
               "double_mul"; "lsag_sign_ring11"; "lsag_verify_ring11"; "msm";
               "batch_verify"; "channel_update" ])) ]

(* --- Channel-update setup (mirrors bench/main.ml) ------------------- *)

let bench_cfg ~vcof_reps =
  { Ch.default_config with Ch.vcof_reps = Some vcof_reps; ring_size = 11;
    n_escrowers = 5; escrow_threshold = 3; precompute = 0 }

let make_channel ~cfg (label : string) : Ch.channel =
  let env = Ch.make_env (Monet_hash.Drbg.split drbg label) in
  let g = Monet_hash.Drbg.split drbg (label ^ "/w") in
  let wa = Monet_xmr.Wallet.create ~ring_size:cfg.Ch.ring_size g ~label:"a" in
  let wb = Monet_xmr.Wallet.create ~ring_size:cfg.Ch.ring_size g ~label:"b" in
  let fund w amount =
    let kp = Monet_sig.Sig_core.gen g in
    Monet_xmr.Ledger.ensure_decoys g env.Ch.ledger ~amount ~n:(3 * cfg.Ch.ring_size);
    let idx =
      Monet_xmr.Ledger.genesis_output env.Ch.ledger
        { Monet_xmr.Tx.otk = kp.Monet_sig.Sig_core.vk; amount }
    in
    Monet_xmr.Wallet.adopt w ~global_index:idx ~keypair:kp ~amount
  in
  fund wa 5000;
  fund wb 5000;
  match Ch.establish ~cfg env ~id:1 ~wallet_a:wa ~wallet_b:wb ~bal_a:5000 ~bal_b:5000 with
  | Ok (c, _) -> c
  | Error e -> failwith ("establish: " ^ Ch.error_to_string e)

(* --- The suite ------------------------------------------------------ *)

let run ~smoke : entry list =
  let scale full tiny = if smoke then tiny else full in
  let sink = ref 0 in
  (* Pre-generate operands so Drbg cost stays out of the loops. *)
  let fe_b = Fe.random drbg in
  let fe_b_bytes = Fe.to_bytes_le fe_b in
  let fer_b = Fe_ref.of_bytes_le fe_b_bytes in
  let scalars = Array.init 64 (fun _ -> Sc.random_nonzero drbg) in
  let p = Point.mul_base (Sc.random_nonzero drbg) in
  let pr = Ref_point.mul (Sc.random_nonzero drbg) Ref_point.base in
  let idx = ref 0 in
  let next_sc () =
    idx := (!idx + 1) land 63;
    scalars.(!idx)
  in
  (* fe_mul: four independent tail-recursive chains of 250 muls each,
     mirroring how point formulas issue field muls (8 independent muls
     per group add, not one serial chain), and amortizing per-call loop
     overhead to nothing. Identical structure on both sides. *)
  let batch = 1000 (* total muls per closure call, 4 x 250 *) in
  let fe_x = ref (Fe.random drbg)
  and fe_y = ref (Fe.random drbg)
  and fe_z = ref (Fe.random drbg)
  and fe_w = ref (Fe.random drbg) in
  let rec fe_chain4 a b c d n =
    if n = 0 then begin
      fe_x := a;
      fe_y := b;
      fe_z := c;
      fe_w := d
    end
    else fe_chain4 (Fe.mul a fe_b) (Fe.mul b fe_b) (Fe.mul c fe_b) (Fe.mul d fe_b) (n - 1)
  in
  let fe_mul_ops =
    float_of_int batch
    *. ops_per_sec ~iters:(scale 20_000 2) (fun () ->
           fe_chain4 !fe_x !fe_y !fe_z !fe_w (batch / 4))
  in
  let fer_of v = Fe_ref.of_bytes_le (Fe.to_bytes_le v) in
  let fer_x = ref (fer_of !fe_x)
  and fer_y = ref (fer_of !fe_y)
  and fer_z = ref (fer_of !fe_z)
  and fer_w = ref (fer_of !fe_w) in
  let rec fer_chain4 a b c d n =
    if n = 0 then begin
      fer_x := a;
      fer_y := b;
      fer_z := c;
      fer_w := d
    end
    else
      fer_chain4 (Fe_ref.mul a fer_b) (Fe_ref.mul b fer_b) (Fe_ref.mul c fer_b)
        (Fe_ref.mul d fer_b) (n - 1)
  in
  let fe_mul_base_ops =
    float_of_int batch
    *. ops_per_sec ~iters:(scale 2_000 1) (fun () ->
           fer_chain4 !fer_x !fer_y !fer_z !fer_w (batch / 4))
  in
  (* The generic-bignum field mul the seed kept underneath the
     specialized one: Bn schoolbook multiplication followed by
     [reduce_fold]'s fold + repeated-subtraction trim. This is the
     "variable-length Bn.t schoolbook + repeated subtraction" path the
     seed's non-specialized field operations (pow, inv, sqrt towers)
     were built from. *)
  let bn_mul a b = Fe_ref.reduce_fold (Bn.mul a b) in
  let rec bng_chain4 a b c d n =
    if n = 0 then begin
      fer_x := a;
      fer_y := b;
      fer_z := c;
      fer_w := d
    end
    else
      bng_chain4 (bn_mul a fer_b) (bn_mul b fer_b) (bn_mul c fer_b)
        (bn_mul d fer_b) (n - 1)
  in
  let fe_mul_generic_ops =
    float_of_int batch
    *. ops_per_sec ~iters:(scale 500 1) (fun () ->
           bng_chain4 !fer_x !fer_y !fer_z !fer_w (batch / 4))
  in
  sink := !sink lxor String.length (Fe.to_bytes_le !fe_x);
  sink := !sink lxor String.length (Fe_ref.to_bytes_le !fer_x);
  (* Variable-base scalar mul (p is not B, so no fixed-base shortcut). *)
  let pmul_ops =
    ops_per_sec ~iters:(scale 500 4) (fun () ->
        sink := !sink lxor Hashtbl.hash (Point.mul (next_sc ()) p))
  in
  let pmul_baseline =
    ops_per_sec ~iters:(scale 50 2) (fun () ->
        sink := !sink lxor Hashtbl.hash (Ref_point.mul (next_sc ()) pr))
  in
  (* Fixed-base. *)
  let mb_ops =
    ops_per_sec ~iters:(scale 3_000 8) (fun () ->
        sink := !sink lxor Hashtbl.hash (Point.mul_base (next_sc ())))
  in
  let mb_baseline =
    ops_per_sec ~iters:(scale 200 2) (fun () ->
        sink := !sink lxor Hashtbl.hash (Ref_point.mul_base (next_sc ())))
  in
  (* Straus a·P + b·B vs the seed's two-ladders-and-an-add. *)
  let dm_ops =
    ops_per_sec ~iters:(scale 500 4) (fun () ->
        sink := !sink lxor Hashtbl.hash (Point.double_mul (next_sc ()) p (next_sc ())))
  in
  let dm_baseline =
    ops_per_sec ~iters:(scale 25 1) (fun () ->
        sink :=
          !sink lxor Hashtbl.hash (Ref_point.double_mul (next_sc ()) pr (next_sc ())))
  in
  (* LSAG over a ring of 11 (the paper's setting). *)
  let ring_size = 11 in
  let pi = 4 in
  let sk = Sc.random_nonzero drbg in
  let ring =
    Array.init ring_size (fun i ->
        if i = pi then Point.mul_base sk else Point.mul_base (Sc.random_nonzero drbg))
  in
  let sg = ref (Monet_sig.Lsag.sign drbg ~ring ~pi ~sk ~msg:"bench") in
  let lsag_sign_ops =
    ops_per_sec ~iters:(scale 50 2) (fun () ->
        sg := Monet_sig.Lsag.sign drbg ~ring ~pi ~sk ~msg:"bench")
  in
  let lsag_verify_ops =
    ops_per_sec ~iters:(scale 50 2) (fun () ->
        if not (Monet_sig.Lsag.verify ~ring ~msg:"bench" !sg) then
          failwith "lsag verify failed in bench")
  in
  (* Pippenger MSM at batch 64, per-term rate, vs computing the same
     sum with 64 individual scalar muls and adds. *)
  let msm_n = 64 in
  let msm_terms =
    Array.init msm_n (fun _ ->
        (Sc.random_nonzero drbg, Point.mul_base (Sc.random_nonzero drbg)))
  in
  let msm_ops =
    float_of_int msm_n
    *. ops_per_sec ~iters:(scale 100 2) (fun () ->
           sink := !sink lxor Hashtbl.hash (Point.msm msm_terms))
  in
  let msm_baseline =
    float_of_int msm_n
    *. ops_per_sec ~iters:(scale 20 1) (fun () ->
           let acc = ref Point.identity in
           Array.iter (fun (k, q) -> acc := Point.add !acc (Point.mul k q)) msm_terms;
           sink := !sink lxor Hashtbl.hash !acc)
  in
  (* Schnorr batch verification at batch 64 (the ISSUE's ≥3× point):
     one RLC + MSM for the whole batch vs a loop of individual
     verifies (one Straus pass each). *)
  let bv_n = 64 in
  let bv_items =
    Array.init bv_n (fun i ->
        let kp = Monet_sig.Sig_core.gen drbg in
        let msg = Printf.sprintf "batch-%d" i in
        { Monet_sig.Batch.vk = kp.Monet_sig.Sig_core.vk; msg;
          sg = Monet_sig.Sig_core.sign drbg kp msg })
  in
  let batch_verify_ops =
    float_of_int bv_n
    *. ops_per_sec ~iters:(scale 100 2) (fun () ->
           if not (Monet_sig.Batch.verify_sigs bv_items) then
             failwith "batch verify failed in bench")
  in
  let batch_verify_baseline =
    float_of_int bv_n
    *. ops_per_sec ~iters:(scale 20 1) (fun () ->
           Array.iter
             (fun (it : Monet_sig.Batch.sig_item) ->
               if not (Monet_sig.Sig_core.verify it.vk it.msg it.sg) then
                 failwith "verify failed in bench")
             bv_items)
  in
  (* One full channel update (both parties, incl. KES cross-signing),
     with a reduced VCOF repetition count so the Stadler proofs don't
     drown the EC signal; the rep count is recorded in the entry. *)
  let vcof_reps = scale 8 2 in
  let c = make_channel ~cfg:(bench_cfg ~vcof_reps) "ec-bench" in
  let upd_ops =
    ops_per_sec ~iters:(scale 10 1) (fun () ->
        match Ch.update c ~amount_from_a:1 with
        | Ok _ -> ()
        | Error e -> failwith (Ch.error_to_string e))
  in
  ignore (Sys.opaque_identity !sink);
  [
    entry "fe_mul" fe_mul_ops ~baseline:fe_mul_generic_ops
      ~note:"baseline: seed generic path (Bn schoolbook mul + reduce_fold trim)";
    entry "fe_mul_vs_specialized" fe_mul_ops ~baseline:fe_mul_base_ops
      ~note:
        "stricter baseline: the seed's hand-specialized 26-bit-limb Fe_ref.mul";
    entry "point_mul" pmul_ops ~baseline:pmul_baseline;
    entry "mul_base" mb_ops ~baseline:mb_baseline;
    entry "double_mul" dm_ops ~baseline:dm_baseline;
    entry "lsag_sign_ring11" lsag_sign_ops;
    entry "lsag_verify_ring11" lsag_verify_ops;
    entry "msm" msm_ops ~baseline:msm_baseline
      ~note:
        "64-term Pippenger MSM, per-term rate; baseline: same sum by 64 \
         point_mul + add";
    entry "batch_verify" batch_verify_ops ~baseline:batch_verify_baseline
      ~note:
        "64 Schnorr signatures by RLC batch (one MSM), per-signature rate; \
         baseline: individual verifies";
    entry "channel_update" upd_ops
      ~note:(Printf.sprintf "vcof_reps=%d, both parties incl. KES" vcof_reps);
  ]

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  (* BENCH_ec.json numbers are only comparable across revisions if the
     metrics registry stayed out of the hot path: assert it is disabled
     and that no counter was ever bumped in this process. *)
  if Monet_obs.Metrics.is_enabled () || Monet_obs.Metrics.total_count () <> 0 then
    failwith "ec_bench must run with the Monet_obs registry disabled";
  let out = ref "BENCH_ec.json" in
  Array.iteri (fun i a -> if a = "-o" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1)) Sys.argv;
  let entries = run ~smoke in
  Printf.printf "%-20s %14s %14s %9s\n" "operation" "ops/sec" "seed ops/sec" "speedup";
  List.iter
    (fun e ->
      Printf.printf "%-20s %14.1f %14s %9s\n" e.name e.ops
        (match e.baseline with Some b -> Printf.sprintf "%.1f" b | None -> "-")
        (match speedup e with Some s -> Printf.sprintf "%.1fx" s | None -> "-"))
    entries;
  let json = json_of_entries ~mode:(if smoke then "smoke" else "full") entries in
  let oc = open_out !out in
  output_string oc (Json.to_string json ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n%!" !out;
  if smoke then begin
    (* Self-validate the emitted file. *)
    let ic = open_in !out in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match Json.Spec.validate doc_spec contents with
    | Error e -> failwith ("BENCH_ec.json invalid: " ^ e)
    | Ok () -> Printf.printf "smoke: JSON validated (monet-ec-bench/1)\n%!"
  end
