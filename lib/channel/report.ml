(** Per-phase accounting, aggregated into the experiment tables.

    [deliver] is the only place protocol messages are charged: the
    driver calls it with each actually-serialized wire message, so
    bytes/messages/signatures derive from real traffic. [add_raw]
    remains for orchestration steps that model traffic outside the
    two-party state machines (splicing's co-sign legs). *)

type t = {
  mutable messages : int;
  mutable bytes : int;
  mutable rounds : int; (* sequential message legs (latency multiplier) *)
  mutable signatures : int;
  mutable monero_txs : int;
  mutable script_txs : int;
  mutable script_gas : int;
}

let fresh () =
  { messages = 0; bytes = 0; rounds = 0; signatures = 0; monero_txs = 0;
    script_txs = 0; script_gas = 0 }

let add_raw (r : t) ~bytes:n =
  r.messages <- r.messages + 1;
  r.bytes <- r.bytes + n

(** Charge one delivered wire message, [bytes] its serialized length. *)
let deliver (r : t) ~(bytes : int) (m : Msg.t) =
  r.messages <- r.messages + 1;
  r.bytes <- r.bytes + bytes;
  r.signatures <- r.signatures + Msg.sig_count m

(** Charge a script call result. *)
let script (r : t) (res : Monet_script.Chain.receipt) =
  r.script_txs <- r.script_txs + 1;
  r.script_gas <- r.script_gas + res.Monet_script.Chain.r_gas
