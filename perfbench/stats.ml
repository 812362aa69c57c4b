(* Order statistics over samples. *)

let sorted xs = List.sort Float.compare xs

(* Linear-interpolated quantile [q] in [0, 1] of a non-empty list. *)
let quantile q xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The highest whole percentile that still has at least ten samples
   beyond it (capped at 99), as [(percentile, value)]; [None] when
   fewer than 11 samples exist. *)
let tail xs =
  let n = List.length xs in
  if n < 11 then None
  else
    let p = min 99 (100 * (n - 10) / n) in
    Some (p, quantile (float_of_int p /. 100.0) xs)

let sum xs = List.fold_left ( +. ) 0.0 xs
