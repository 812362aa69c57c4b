(** Per-phase accounting, aggregated into the experiment tables.

    {!deliver} is the only place protocol messages are charged: the
    driver calls it with each actually-serialized wire message, so
    bytes/messages/signatures derive from real traffic. {!add_raw}
    remains for orchestration steps that model traffic outside the
    two-party state machines (splicing's co-sign legs). *)

(** Mutable tally of one protocol phase's traffic and on-chain cost.
    [rounds] counts sequential message legs (the latency multiplier in
    the experiment model). *)
type t = {
  mutable messages : int;
  mutable bytes : int;
  mutable rounds : int;
  mutable signatures : int;
  mutable monero_txs : int;
  mutable script_txs : int;
  mutable script_gas : int;
}

(** A zeroed report. *)
val fresh : unit -> t

(** Charge one hand-accounted message of [bytes] bytes (orchestration
    outside the driver, e.g. splicing's co-sign legs). *)
val add_raw : t -> bytes:int -> unit

(** Charge one delivered wire message: [bytes] is the length of its
    real serialization (the caller already has it, or {!Msg.size}),
    signatures come from {!Msg.sig_count}. *)
val deliver : t -> bytes:int -> Msg.t -> unit

(** Charge a script call result (one script transaction plus its
    gas). *)
val script : t -> Monet_script.Chain.receipt -> unit
