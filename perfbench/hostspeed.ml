(* Host-speed reference. On a shared host another tenant can slow this
   process's memory-heavy code to half speed for minutes at a time, so
   the same program reads 20-40% apart in runs minutes apart. Each run
   also times this fixed loop — small-array allocation and dependent
   multiply-adds, owned by the benchmark so that no change to the
   library moves it — between its timed phases, and scales its bounded
   timings to the speed at which the loop takes [nominal_ms]. Over 18
   [channel] runs, the log of the run's update rate and of the loop's
   median time correlated at -0.95 (README.md, "Measured on"). *)

(* Fixed scale: scaled figures equal measured ones when the loop's
   median is this. The loop's run medians on the host of README.md
   ranged from about 4.1 to 6.0 ms. *)
let nominal_ms = 6.0

let sink = ref [||]

(* Wall milliseconds of one pass of the reference loop. *)
let loop_ms () =
  let (), s =
    Clock.time (fun () ->
        let x = ref 1 in
        for i = 1 to 100_000 do
          let a = Array.make 10 !x in
          for j = 1 to 9 do
            Array.unsafe_set a j ((Array.unsafe_get a (j - 1) * 0x9E3779B1) + Array.unsafe_get a j + i)
          done;
          x := a.(9) land 0xffff;
          sink := a
        done)
  in
  s.Clock.wall
