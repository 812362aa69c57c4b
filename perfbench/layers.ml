(* Per-layer metrics of a traced run, and the unit-cost reconciliation
   that checks them against measured wall time. *)

open Monet_ec

(* Wall nanoseconds per call of [f], median of five timed loops. *)
let unit_ns ~iters f =
  Stats.median
    (List.init 5 (fun _ ->
         let (), s = Clock.time (fun () -> for _ = 1 to iters do f () done) in
         s.Clock.wall *. 1e6 /. float_of_int iters))

type units = { fe_mul : float; fe_sq : float; point_mul : float; point_mul_base : float;
               point_double_mul : float }  (* ns per call *)

(* Unit costs of the field and point operations, timed the way an
   untraced run executes them (metrics counters off). *)
let unit_costs (g : Monet_hash.Drbg.t) : units =
  let x = ref (Fe.random g) and y = Fe.random g in
  let k = Sc.random_nonzero g and k2 = Sc.random_nonzero g in
  let p = ref (Point.mul_base k) in
  { fe_mul = unit_ns ~iters:200_000 (fun () -> x := Fe.mul !x y);
    fe_sq = unit_ns ~iters:200_000 (fun () -> x := Fe.sq !x);
    point_mul = unit_ns ~iters:200 (fun () -> p := Point.mul k !p);
    point_mul_base = unit_ns ~iters:400 (fun () -> p := Point.mul_base k2);
    point_double_mul = unit_ns ~iters:200 (fun () -> p := Point.double_mul k !p k2) }

(* What a workload's per-op figures are counted per: one update, one
   payment, or one payment offered to a batch [Workload.run] (whose
   measurement is the whole batch). *)
type per = Update | Payment | Routed_payment

type spec = { op : string; per : per }  (* [op]: the operation's measurement *)

let per_layer (m : Meter.t) ~(plain : Meter.t) ~(spec : spec) ~episodes ~plain_episodes ~overhead
    ~(u : units) :
    (string * string * float) list =
  let f = float_of_int in
  let n_of (m : Meter.t) =
    if spec.per = Routed_payment then m.Meter.ops else Meter.count m ~scope:spec.op "n"
  in
  let n_ops = n_of m in
  let per d v = if d = 0 then 0.0 else v /. f d in
  let op_count name = per n_ops (f (Meter.count m ~scope:spec.op name)) in
  let states = Meter.count m ~scope:"refill" "states" in
  let refill_count name = per states (f (Meter.count m ~scope:"refill" name)) in
  let payments = if spec.per = Update then 0 else n_ops in
  let pay_count name = per payments (f (Meter.count m ~scope:spec.op name)) in
  let self name = per n_ops (Meter.self_ms m ~scope:spec.op name) in
  let per_episode scope name = per episodes (f (Meter.count m ~scope name)) in
  (* Counts are the same traced or not, so the prediction is set
     against the untraced episode's wall time per op. *)
  let plain_ops = n_of plain in
  let op_wall = per plain_ops (Stats.sum (Meter.samples plain spec.op)) in
  let fe_ms = (op_count "ec.fe_mul" *. u.fe_mul +. op_count "ec.fe_sq" *. u.fe_sq) /. 1e6 in
  let point_ms =
    (op_count "ec.point_mul" *. u.point_mul
    +. op_count "ec.point_mul_base" *. u.point_mul_base
    +. op_count "ec.point_double_mul" *. u.point_double_mul)
    /. 1e6
  in
  [ ("ec.fe_mul.per_op", "count", op_count "ec.fe_mul");
    ("ec.fe_sq.per_op", "count", op_count "ec.fe_sq");
    ("ec.point_mul.per_op", "count", op_count "ec.point_mul");
    ("ec.point_double_mul.per_op", "count", op_count "ec.point_double_mul");
    ("ec.point_mul_base.per_op", "count", op_count "ec.point_mul_base");
    ("ec.point_msm_terms.per_refill_state", "count", refill_count "ec.point_msm_terms");
    ("vcof.refill.ms_per_state", "ms", per states (Stats.sum (Meter.samples m "refill")));
    ("sig.lsag_step.per_op", "count", op_count "sig.lsag_step");
    ("payment.setup.self_ms", "ms", if payments = 0 then 0.0 else self "payment.setup");
    ("channel.lock.self_ms", "ms", if payments = 0 then 0.0 else self "channel.lock");
    ("channel.unlock.self_ms", "ms", if payments = 0 then 0.0 else self "channel.unlock");
    ("router.find_path.ms", "ms", per payments (Stats.sum (Meter.samples m "find_path")));
    ("store.journal_records.per_update", "count",
      if spec.per = Update then op_count "journal.records" else 0.0);
    ("store.journal_checkpoints.per_episode", "count", per_episode "episode" "journal.checkpoints");
    ("store.durable_bytes.per_episode", "bytes", per_episode "episode" "store.durable_bytes");
    ("net.route.settled.per_payment", "count", pay_count "net.route.settled");
    ("net.route.relaxed.per_payment", "count", pay_count "net.route.relaxed");
    ("dsim.events.per_payment", "count", pay_count "dsim.events");
    ("gc.minor_words.per_op", "words",
      per plain_ops (f (Meter.count plain ~scope:spec.op "gc.minor_words")));
    ("gc.major_collections.per_episode", "count",
      per plain_episodes (f (Meter.count plain ~scope:"episode" "gc.major_collections")));
    ("trace.overhead_ratio", "ratio", overhead);
    ("ec.unit.fe_mul_ns", "ns", u.fe_mul);
    ("ec.unit.fe_sq_ns", "ns", u.fe_sq);
    ("ec.unit.point_mul_us", "us", u.point_mul /. 1e3);
    ("ec.unit.point_mul_base_us", "us", u.point_mul_base /. 1e3);
    ("ec.unit.point_double_mul_us", "us", u.point_double_mul /. 1e3);
    ("recon.measured_ms.per_op", "ms", op_wall);
    ("recon.fe_predicted_ms.per_op", "ms", fe_ms);
    ("recon.point_predicted_ms.per_op", "ms", point_ms);
    ("recon.residual_ratio", "ratio", if op_wall = 0.0 then 0.0 else 1.0 -. (fe_ms /. op_wall)) ]

(* Counters that must repeat exactly when the same inputs are replayed. *)
let exact name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "ec."; "sig."; "script.gas"; "journal."; "net.route"; "dsim.events"; "gc.minor_words" ]

(* Exact counts of every measurement but the untimed set-up, which
   also pays one-time costs of the first traced episode. *)
let exact_counts (m : Meter.t) =
  Hashtbl.fold
    (fun ((scope, name) as k) v acc ->
      if scope <> "setup" && exact name then (k, v) :: acc else acc)
    m.Meter.counts []
  |> List.sort compare

(* The first key whose value differs between two sorted count lists. *)
let first_difference a b =
  let key ((scope, name), v) = Printf.sprintf "%s/%s=%d" scope name v in
  let rec go a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' -> if x = y then go a' b' else Some (key x ^ " vs " ^ key y)
    | x :: _, [] | [], x :: _ -> Some (key x ^ " vs nothing")
  in
  go a b

(* The workload's shape: how many measurements of each kind ran, and
   the journal activity they caused. *)
let shape (m : Meter.t) =
  Hashtbl.fold
    (fun ((_, name) as k) v acc ->
      if name = "n" || String.starts_with ~prefix:"journal." name then (k, v) :: acc else acc)
    m.Meter.counts []
  |> List.sort compare
