(** Discrete-event simulation clock and event queue.

    Time is simulated milliseconds (float). Events are callbacks on a
    binary min-heap; [run] drains the queue. Protocol layers mix
    *measured* computation time (wall clock of the real crypto) with
    *simulated* network latency, as the paper's evaluation does. *)

type event = { at : float; seq : int; run : unit -> unit }

type t = {
  mutable now : float;
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int; (* FIFO tie-break for simultaneous events *)
}

let create () =
  { now = 0.0; heap = Array.make 64 { at = 0.0; seq = 0; run = ignore }; size = 0;
    next_seq = 0 }

let now (c : t) = c.now

let before (a : event) (b : event) = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let schedule (c : t) ~(delay : float) (run : unit -> unit) : unit =
  if delay < 0.0 then invalid_arg "Clock.schedule: negative delay";
  let ev = { at = c.now +. delay; seq = c.next_seq; run } in
  c.next_seq <- c.next_seq + 1;
  if c.size = Array.length c.heap then begin
    let bigger = Array.make (2 * c.size) ev in
    Array.blit c.heap 0 bigger 0 c.size;
    c.heap <- bigger
  end;
  (* sift up *)
  let i = ref c.size in
  c.size <- c.size + 1;
  c.heap.(!i) <- ev;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before c.heap.(!i) c.heap.(parent) then begin
      let t = c.heap.(parent) in
      c.heap.(parent) <- c.heap.(!i);
      c.heap.(!i) <- t;
      i := parent
    end
    else continue := false
  done

let pop (c : t) : event option =
  if c.size = 0 then None
  else begin
    let top = c.heap.(0) in
    c.size <- c.size - 1;
    c.heap.(0) <- c.heap.(c.size);
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < c.size && before c.heap.(l) c.heap.(!smallest) then smallest := l;
      if r < c.size && before c.heap.(r) c.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let t = c.heap.(!smallest) in
        c.heap.(!smallest) <- c.heap.(!i);
        c.heap.(!i) <- t;
        i := !smallest
      end
      else continue := false
    done;
    Some top
  end

let m_events = Monet_obs.Metrics.counter "dsim.events"

(** Run events until the queue is empty. While draining, the queue's
    simulated time is installed as the tracer's sim clock, so every
    span/event recorded inside an event callback carries sim-time next
    to wall-time. *)
let run (c : t) () : unit =
  let continue = ref true in
  Monet_obs.Trace.set_sim_clock (Some (fun () -> c.now));
  Fun.protect
    ~finally:(fun () -> Monet_obs.Trace.set_sim_clock None)
    (fun () ->
      while !continue do
        match pop c with
        | None -> continue := false
        | Some ev ->
            c.now <- ev.at;
            Monet_obs.Metrics.bump m_events;
            ev.run ()
      done)

(** Advance the clock without events (models pure computation time). *)
let advance (c : t) (ms : float) : unit =
  if ms < 0.0 then invalid_arg "Clock.advance: negative";
  c.now <- c.now +. ms
