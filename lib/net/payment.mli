(** Multi-hop payments over MoNet (paper Fig. 5). One executor,
    {!execute}, walks Setup → Lock → Unlock along a route and, when a
    hop's counterparty goes silent, escalates exactly as the paper
    prescribes: cooperative cancel, KES dispute, or watchtower
    punishment. *)

(** Payment-layer failures, fully typed so fault-path tests can
    pattern-match on the kind of failure (and the hop it happened at)
    instead of string-comparing. Channel failures keep their typed
    cause with the hop context that produced them; strings appear only
    at the CLI/bench boundary via {!error_to_string}. *)
type error =
  | Channel of string * Monet_channel.Channel.error
      (** context (e.g. ["lock hop 2"]) and cause *)
  | No_route of string  (** the router found no (disjoint) path *)
  | Onion of string  (** onion wrap/peel failure *)
  | Packet_rejected of int  (** hop (1-based) rejected its AMHL packet *)
  | Cancelled  (** a multipath part was cancelled by the receiver *)

(** Human-readable rendering of an {!error}. *)
val error_to_string : error -> string

(** Per-payment accounting: measured CPU milliseconds per phase
    (lock and unlock summed across hops) and the message legs and
    bytes every hop's channel sessions and the onion delivery cost. *)
type phase_stats = {
  mutable setup_ms : float;
  mutable lock_ms : float;
  mutable unlock_ms : float;
  mutable n_hops : int;
  mutable messages : int;
  mutable bytes : int;
  mutable onion_bytes : int;
}

(** How each hop of a payment ended up. *)
type hop_fate =
  | Hop_pending  (** never locked (failure hit an earlier hop first) *)
  | Hop_unlocked  (** paid off-chain, channel stays open *)
  | Hop_cancelled  (** cancelled cooperatively, channel stays open *)
  | Hop_disputed of Monet_channel.Channel.payout
      (** force-closed through the KES *)
  | Hop_punished of Monet_channel.Channel.payout
      (** the watchtower caught a stale broadcast and settled with
          priority *)

(** The result of a payment that ran to a resolution. [succeeded]
    means the receiver ended up paid, off-chain or on-chain; [fates]
    has one entry per hop in path order; [timeouts] counts channel
    sessions that hit their deadline. *)
type outcome = {
  stats : phase_stats;
  path : Router.hop list;
  succeeded : bool;
  fates : hop_fate array;
  disputes : int;
  punishments : int;
  timeouts : int;
}

(** [execute t ~path ~amount ()] pays [amount] to the last node of
    [path]. The sender builds the AMHL locks and delivers each hop's
    packet in a fixed-size onion; every relay peels its layer and
    verifies its packet. Hop i then locks its fee-adjusted amount
    ({!Router.amounts}) under timer [base_timer + (n - i)·timer_delta],
    so earlier hops outlive later ones, and the receiver's witness
    unlocks the hops back toward the sender, each payer cascading the
    witness it extracted. The receiver nets [amount]; every
    intermediary keeps its forwarding fee.

    [receiver_cooperates = false] models a receiver that never
    reveals its witness: every hop cancels after its timer
    (unlockability). When a hop's channel session times out (its
    counterparty stayed silent past the driver deadline, see
    {!Monet_channel.Driver}), the executor waits out that hop's timer
    (advancing [clock]), gives the watchtower [tower] a tick, and
    otherwise forces the channel through the KES: at the pre-lock
    state during lock or cancel, at the locked state during unlock
    (the payee holds the witness, and the on-chain close reveals it so
    the cascade continues upstream). Hops upstream of a lock-phase
    failure cancel. [on_locked i] runs once hop [i] (0-based) is
    locked.

    Silence never escapes as an [Error]; other channel errors do,
    because they indicate protocol violations. *)
val execute :
  Graph.t ->
  path:Router.hop list ->
  amount:int ->
  ?receiver_cooperates:bool ->
  ?tower:Monet_channel.Watchtower.t ->
  ?clock:Monet_dsim.Clock.t ->
  ?on_locked:(int -> unit) ->
  ?base_timer:int ->
  ?timer_delta:int ->
  unit ->
  (outcome, error) result

(** Route with {!Router.find_path} and {!execute} in one step. *)
val pay :
  Graph.t ->
  src:int ->
  dst:int ->
  amount:int ->
  ?receiver_cooperates:bool ->
  unit ->
  (outcome, error) result

(** End-to-end latency under the paper's accounting: per hop, one
    network latency plus the measured per-hop computation. *)
val latency_ms : outcome -> network_ms:float -> float

(** Pessimistic accounting: every sequential message leg pays
    [network_ms]. *)
val latency_full_rounds_ms : outcome -> network_ms:float -> float

(** Multi-path payment: split [amount] greedily over capacity-disjoint
    routes (each part bounded by its bottleneck, fees included) and
    {!execute} each part. The split is all-or-nothing per part but not
    across parts. Returns the per-part (path, amount) breakdown. *)
val pay_multipath :
  Graph.t ->
  src:int ->
  dst:int ->
  amount:int ->
  ?max_parts:int ->
  unit ->
  ((Router.hop list * int) list, error) result
