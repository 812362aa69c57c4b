(* Parallel-path smoke: cheap regression guard for the batch verifiers
   and the domain-sharded network engine (DESIGN.md §3.10), wired into
   `dune build @bench-par-smoke` (and the root `check` alias).

   Runs in well under a second:
   - tiny RLC batches through every batch verifier (Schnorr, adaptor
     pre-signatures, CT range proofs, Stadler chain steps), each with
     an adversarial single-corruption counterpart that must reject;
   - a 2-domain sharded workload run twice, parallel vs sequential,
     asserting the merged summaries are byte-identical;
   then emits a small JSON report and re-reads it through the shared
   codec (Monet_util.Json), failing on any malformed field or failed
   check. *)

open Monet_ec
open Monet_util
open Monet_sig

let g = Monet_hash.Drbg.of_int 0x70736d6b

type check = { name : string; ok : bool }

let checks : check list ref = ref []
let record name ok = checks := { name; ok } :: !checks

(* --- batch verifiers ------------------------------------------------ *)

let sig_batches () =
  let n = 8 in
  let items =
    Array.init n (fun i ->
        let kp = Sig_core.gen g in
        let msg = Printf.sprintf "par-smoke-%d" i in
        { Batch.vk = kp.vk; msg; sg = Sig_core.sign g kp msg })
  in
  record "sig_batch_accepts" (Batch.verify_sigs items);
  let corrupt = Array.copy items in
  corrupt.(3) <-
    { items.(3) with
      Batch.sg =
        { items.(3).Batch.sg with
          Sig_core.s = Sc.add items.(3).Batch.sg.Sig_core.s Sc.one } };
  record "sig_batch_rejects_corruption" (not (Batch.verify_sigs corrupt))

let pre_batches () =
  let n = 6 in
  let items =
    Array.init n (fun i ->
        let kp = Sig_core.gen g in
        let stmt = Point.mul_base (Sc.random_nonzero g) in
        let msg = Printf.sprintf "par-pre-%d" i in
        { Batch.p_vk = kp.vk; p_msg = msg; p_stmt = stmt;
          p_pre = Adaptor.pre_sign g kp msg ~stmt })
  in
  record "pre_batch_accepts" (Batch.verify_pres items);
  let corrupt = Array.copy items in
  corrupt.(0) <-
    { items.(0) with Batch.p_stmt = Point.mul_base (Sc.random_nonzero g) };
  record "pre_batch_rejects_corruption" (not (Batch.verify_pres corrupt))

let range_batches () =
  let mk amount =
    let blind = Sc.random_nonzero g in
    ( Monet_xmr.Ct.commit ~amount ~blind,
      Monet_xmr.Range_proof.prove g ~amount ~blind )
  in
  let batch = Array.init 4 (fun i -> mk (100 * (i + 1))) in
  record "range_batch_accepts" (Monet_xmr.Range_proof.verify_batch batch);
  let corrupt = Array.copy batch in
  corrupt.(2) <-
    ( Monet_xmr.Ct.commit ~amount:9 ~blind:(Sc.random_nonzero g),
      snd batch.(2) );
  record "range_batch_rejects_corruption"
    (not (Monet_xmr.Range_proof.verify_batch corrupt))

let stadler_batches () =
  let open Monet_vcof in
  let pp = Vcof.default_pp in
  let reps = 8 (* reduced cut-and-choose: smoke checks plumbing *) in
  let n = 3 in
  let pairs = Array.make (n + 1) (Vcof.sw_gen g) in
  let steps =
    Array.init n (fun i ->
        let next, proof = Vcof.new_sw ~reps g pairs.(i) ~pp in
        pairs.(i + 1) <- next;
        (pairs.(i).Vcof.stmt, next.Vcof.stmt, proof))
  in
  record "stadler_batch_accepts" (Vcof.c_vrfy_batch ~pp steps);
  let corrupt = Array.copy steps in
  let prev, _, proof = steps.(1) in
  corrupt.(1) <- (prev, (Vcof.sw_gen g).Vcof.stmt, proof);
  record "stadler_batch_rejects_corruption" (not (Vcof.c_vrfy_batch ~pp corrupt))

(* --- sharded engine ------------------------------------------------- *)

let shard_determinism () =
  let cfg =
    { Monet_net.Workload.default_config with
      Monet_net.Workload.n_payments = 120; arrival_rate = 200.0 }
  in
  let run parallel =
    match
      Monet_net.Shard.plan ~seed:"par-smoke" ~domains:2 ~shape:"hub_spoke"
        ~nodes:24 ~balance:2_000 cfg
    with
    | Error e -> failwith ("par_smoke shard plan: " ^ e)
    | Ok p -> (
        match Monet_net.Shard.run ~parallel p with
        | Error e -> failwith ("par_smoke shard run: " ^ e)
        | Ok m -> m)
  in
  let par = run true and seq = run false in
  record "shard_parallel_eq_sequential"
    (String.equal (Monet_net.Shard.summary par) (Monet_net.Shard.summary seq));
  record "shard_conserved" par.Monet_net.Shard.conserved;
  record "shard_all_offered"
    (par.Monet_net.Shard.agg_offered = cfg.Monet_net.Workload.n_payments)

(* --- report --------------------------------------------------------- *)

let json_of_checks (cs : check list) : Json.t =
  Json.Obj
    [ ("schema", Json.Str "monet-par-smoke/1");
      ("checks", Json.Obj (List.map (fun c -> (c.name, Json.Bool c.ok)) cs)) ]

(* Every recorded check must appear under "checks", and be true. *)
let report_spec (cs : check list) =
  let open Json.Spec in
  Object
    [ ("schema", tag "monet-par-smoke/1");
      ("checks",
        Object
          (List.map
             (fun c -> (c.name, Where (Bool, "true", ( = ) (Json.Bool true))))
             cs)) ]

let () =
  let out = ref "BENCH_par.smoke.json" in
  Array.iteri
    (fun i a ->
      if a = "-o" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1))
    Sys.argv;
  sig_batches ();
  pre_batches ();
  range_batches ();
  stadler_batches ();
  shard_determinism ();
  let cs = List.rev !checks in
  List.iter
    (fun c -> if not c.ok then failwith ("par_smoke: FAILED " ^ c.name))
    cs;
  let oc = open_out !out in
  output_string oc (Json.to_string (json_of_checks cs) ^ "\n");
  close_out oc;
  let ic = open_in !out in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Json.Spec.validate (report_spec cs) contents with
  | Error e -> failwith ("par_smoke: report invalid: " ^ e)
  | Ok () -> ());
  Printf.printf "par-smoke: %d checks ok\n%!" (List.length cs)
