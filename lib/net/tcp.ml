type params = {
  initial_cwnd : float;
  initial_ssthresh : float;
  max_cwnd : float;
  rto_min : float;
  rto_max : float;
  dupack_threshold : int;
}

let default_params =
  {
    initial_cwnd = 2.;
    initial_ssthresh = 32.;
    max_cwnd = 256.;
    rto_min = 0.2;
    rto_max = 10.;
    dupack_threshold = 3;
  }

module Sender = struct
  type t = {
    engine : Sim.Engine.t;
    params : params;
    flow : int;
    micro : int;
    transmit : Packet.t -> unit;
    mutable running : bool;
    mutable next_seq : int;  (* next new sequence to send *)
    mutable acked : int;  (* highest cumulative ack *)
    mutable cwnd : float;
    mutable ssthresh : float;
    mutable dup_acks : int;
    mutable recover : int;  (* fast-recovery exit point *)
    mutable srtt : float;
    mutable rttvar : float;
    mutable rto : float;
    mutable backoff : float;
    (* The retransmission timer is armed from [arm_rto] until the next
       [cancel_rto], so one that fired stays armed until then. Every
       cancel bumps [rto_gen]; the pending event compares it with the
       generation it was armed under and fires as a no-op once stale. *)
    mutable rto_armed : bool;
    mutable rto_gen : int;
    (* Karn's rule: RTT-sample one un-retransmitted segment at a time. *)
    mutable sample_seq : int;
    mutable sample_time : float;
    mutable retransmits : int;
    mutable timeouts : int;
  }

  let create ~engine ?(params = default_params) ~flow ~micro ~transmit () =
    {
      engine;
      params;
      flow;
      micro;
      transmit;
      running = false;
      next_seq = 1;
      acked = 0;
      cwnd = params.initial_cwnd;
      ssthresh = params.initial_ssthresh;
      dup_acks = 0;
      recover = 0;
      srtt = 0.;
      rttvar = 0.;
      rto = 1.;
      backoff = 1.;
      rto_armed = false;
      rto_gen = 0;
      sample_seq = 0;
      sample_time = 0.;
      retransmits = 0;
      timeouts = 0;
    }

  let cwnd t = t.cwnd

  let ssthresh t = t.ssthresh

  let retransmits t = t.retransmits

  let timeouts t = t.timeouts

  let acked t = t.acked

  let srtt t = t.srtt

  let in_flight t = t.next_seq - 1 - t.acked

  let cancel_rto t =
    if t.rto_armed then begin
      t.rto_armed <- false;
      t.rto_gen <- t.rto_gen + 1
    end

  let emit t ~seq ~retransmission =
    let now = Sim.Engine.now t.engine in
    let pkt = Packet.make ~id:seq ~flow:t.flow ~micro:t.micro ~created:now () in
    if retransmission then t.retransmits <- t.retransmits + 1
    else if t.sample_seq = 0 then begin
      t.sample_seq <- seq;
      t.sample_time <- now
    end;
    t.transmit pkt

  let update_rtt t ~now =
    if t.sample_seq > 0 && t.acked >= t.sample_seq then begin
      let sample = now -. t.sample_time in
      (* lint: float-eq-ok — 0. is the exact "no RTT sample yet" sentinel *)
      if t.srtt = 0. then begin
        t.srtt <- sample;
        t.rttvar <- sample /. 2.
      end
      else begin
        t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. sample));
        t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
      end;
      t.rto <-
        Float.min t.params.rto_max
          (Float.max t.params.rto_min (t.srtt +. (4. *. t.rttvar)));
      t.sample_seq <- 0
    end

  let rec arm_rto t =
    cancel_rto t;
    t.rto_armed <- true;
    let gen = t.rto_gen in
    Sim.Engine.schedule t.engine ~delay:(t.rto *. t.backoff) (fun () ->
        if t.rto_gen = gen then on_rto t)

  and on_rto t =
    if t.running && in_flight t > 0 then begin
      t.timeouts <- t.timeouts + 1;
      t.ssthresh <- Float.max 2. (t.cwnd /. 2.);
      t.cwnd <- 1.;
      t.dup_acks <- 0;
      t.recover <- t.next_seq - 1;
      t.backoff <- Float.min 64. (t.backoff *. 2.);
      t.sample_seq <- 0 (* Karn: no sample across a retransmission *);
      emit t ~seq:(t.acked + 1) ~retransmission:true;
      arm_rto t
    end

  let rec fill_window t =
    if t.running && float_of_int (in_flight t) < Float.min t.cwnd t.params.max_cwnd
    then begin
      let seq = t.next_seq in
      t.next_seq <- t.next_seq + 1;
      emit t ~seq ~retransmission:false;
      if not t.rto_armed then arm_rto t;
      fill_window t
    end

  let start t =
    if not t.running then begin
      t.running <- true;
      fill_window t
    end

  let stop t =
    t.running <- false;
    cancel_rto t

  let ack t ackno =
    if t.running then begin
      let now = Sim.Engine.now t.engine in
      if ackno > t.acked then begin
        (* New data acknowledged. *)
        let newly = ackno - t.acked in
        t.acked <- ackno;
        t.backoff <- 1.;
        update_rtt t ~now;
        if t.dup_acks >= t.params.dupack_threshold then begin
          (* Leaving fast recovery. *)
          if ackno >= t.recover then begin
            t.dup_acks <- 0;
            t.cwnd <- t.ssthresh
          end
          else
            (* Partial ACK (NewReno): retransmit the next hole. *)
            emit t ~seq:(ackno + 1) ~retransmission:true
        end
        else begin
          t.dup_acks <- 0;
          for _ = 1 to newly do
            if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.
            else t.cwnd <- t.cwnd +. (1. /. t.cwnd)
          done;
          t.cwnd <- Float.min t.cwnd t.params.max_cwnd
        end;
        if in_flight t > 0 then arm_rto t else cancel_rto t;
        fill_window t
      end
      else if ackno = t.acked && in_flight t > 0 then begin
        (* Duplicate ACK. *)
        t.dup_acks <- t.dup_acks + 1;
        if t.dup_acks = t.params.dupack_threshold then begin
          t.ssthresh <- Float.max 2. (t.cwnd /. 2.);
          t.cwnd <- t.ssthresh +. float_of_int t.params.dupack_threshold;
          t.recover <- t.next_seq - 1;
          t.sample_seq <- 0;
          emit t ~seq:(t.acked + 1) ~retransmission:true;
          arm_rto t
        end
        else if t.dup_acks > t.params.dupack_threshold then begin
          (* Window inflation lets new data trickle during recovery. *)
          t.cwnd <- Float.min (t.cwnd +. 1.) t.params.max_cwnd;
          fill_window t
        end
      end
    end
end

module Receiver = struct
  type t = {
    send_ack : int -> unit;
    mutable expected : int;  (* next in-order sequence *)
    out_of_order : (int, unit) Hashtbl.t;
  }

  let create ~send_ack = { send_ack; expected = 1; out_of_order = Hashtbl.create 32 }

  let delivered t = t.expected - 1

  let receive t pkt =
    let seq = pkt.Packet.id in
    if seq >= t.expected then begin
      Hashtbl.replace t.out_of_order seq ();
      while Hashtbl.mem t.out_of_order t.expected do
        Hashtbl.remove t.out_of_order t.expected;
        t.expected <- t.expected + 1
      done
    end;
    t.send_ack (t.expected - 1)
end
