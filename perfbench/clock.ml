(* The benchmark's one timing helper: a monotonic wall clock beside
   process CPU time. Nothing here reads [Sys.time], which under OCaml 5
   sums CPU over every domain and is not a wall clock. *)

let wall_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let cpu_ms () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1000.0

type sample = { wall : float; cpu : float }  (* milliseconds *)

(* Run [f], returning its result with the wall and CPU time it took. *)
let time (f : unit -> 'a) : 'a * sample =
  let w0 = wall_ms () and c0 = cpu_ms () in
  let r = f () in
  let c1 = cpu_ms () and w1 = wall_ms () in
  (r, { wall = w1 -. w0; cpu = c1 -. c0 })
