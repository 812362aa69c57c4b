(** Deterministic random byte generator (hash-DRBG over SHA-512).

    Used for all randomness in the library so that tests, simulations
    and benchmarks are reproducible: every generator is built from an
    explicit seed. *)

type t = { mutable key : string; mutable counter : int }

let create ~(seed : string) : t =
  { key = Sha512.digest ("monet/drbg/seed\x00" ^ seed); counter = 0 }

let of_int (n : int) : t = create ~seed:(string_of_int n)

let block (t : t) : string =
  let out = Sha512.digest_list [ t.key; Monet_util.Bytes_ext.le64_of_int t.counter ] in
  t.counter <- t.counter + 1;
  out

let bytes (t : t) (n : int) : string =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    Buffer.add_string buf (block t)
  done;
  String.sub (Buffer.contents buf) 0 n

(** Uniform integer in [0, bound). *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Drbg.int: bound must be positive";
  (* Rejection sampling on 62-bit values to avoid modulo bias. *)
  let rec go () =
    let s = bytes t 8 in
    let v = Monet_util.Bytes_ext.int_of_le64 s 0 land max_int in
    let limit = max_int - (max_int mod bound) in
    if v >= limit then go () else v mod bound
  in
  go ()

let float (t : t) : float =
  let v = int t (1 lsl 53) in
  Stdlib.float_of_int v /. Stdlib.float_of_int (1 lsl 53)

(** Derive an independent child generator, e.g. one per simulated node. *)
let split (t : t) (label : string) : t =
  create ~seed:(block t ^ label)

(** Re-key the generator in place from a fresh seed, discarding all
    prior state. Crash recovery must call this on a restored party's
    generator: replaying the pre-crash stream would re-emit signing
    nonces, and nonce reuse forfeits the channel. *)
let reseed (t : t) ~(seed : string) : unit =
  t.key <- Sha512.digest ("monet/drbg/reseed\x00" ^ seed);
  t.counter <- 0
