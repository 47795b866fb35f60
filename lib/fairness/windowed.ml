(* Time-windowed fairness over cumulative-delivery series. All
   functions consume nondecreasing cumulative series (packets delivered
   by time t, as sampled by the runners) so per-window throughput is a
   telescoping difference: window sums equal end-to-end totals by
   construction, which is the invariant the property tests pin down. *)

let check_window window =
  if not (Float.is_finite window && window > 0.) then
    invalid_arg "Windowed: window must be positive and finite"

let check_span ~from ~until =
  if not (Float.is_finite from && Float.is_finite until && until > from) then
    invalid_arg "Windowed: need finite until > from"

(* Window boundaries [from, from+w, ...; until]. The final window is
   partial when the span is not a multiple of [w]; a sliver shorter
   than [w * 1e-9] is merged into the previous window so float
   accumulation noise cannot mint an empty extra window. *)
let boundaries ~from ~until ~window =
  check_window window;
  check_span ~from ~until;
  let eps = window *. 1e-9 in
  let rec go acc t =
    let next = t +. window in
    if next >= until -. eps then List.rev (until :: acc)
    else go (next :: acc) next
  in
  Array.of_list (go [ from ] from)

let cumulative_at ts t = Option.value ~default:0. (Sim.Timeseries.value_at ts t)

let throughput ts ~from ~until ~window =
  let bounds = boundaries ~from ~until ~window in
  Array.init
    (Array.length bounds - 1)
    (fun i ->
      let t0 = bounds.(i) and t1 = bounds.(i + 1) in
      (t0, (cumulative_at ts t1 -. cumulative_at ts t0) /. (t1 -. t0)))

(* Per-window weighted Jain. A flow participates in a window only if it
   delivered anything there: under churn most flows are absent from
   most windows, and counting them as zero-rate participants would
   measure lifetime overlap, not fairness among the flows actually
   competing. Windows with fewer than two participants are vacuously
   fair (Jain of a singleton is 1). *)
let jain_series ~flows ~from ~until ~window =
  let bounds = boundaries ~from ~until ~window in
  let flows = Array.of_list flows in
  Array.init
    (Array.length bounds - 1)
    (fun i ->
      let t0 = bounds.(i) and t1 = bounds.(i + 1) in
      let active =
        Array.to_list flows
        |> List.filter_map (fun (weight, ts) ->
               let d = cumulative_at ts t1 -. cumulative_at ts t0 in
               if d > 0. then Some (d /. (t1 -. t0), weight) else None)
      in
      let rates = Array.of_list (List.map fst active) in
      let weights = Array.of_list (List.map snd active) in
      (t0, Metrics.jain_index ~rates ~weights, Array.length rates))

(* Mean per-window Jain over the windows where fairness is actually at
   stake (at least two concurrent flows); 1 if no window is contended. *)
let mean_jain ~flows ~from ~until ~window =
  let series = jain_series ~flows ~from ~until ~window in
  let sum = ref 0. and n = ref 0 in
  Array.iter
    (fun (_, j, active) ->
      if active >= 2 then begin
        sum := !sum +. j;
        incr n
      end)
    series;
  if !n = 0 then 1. else !sum /. float_of_int !n

(* Multi-timescale bandwidth profile (after Nádas et al.): for each
   timescale, the peak average rate the flow sustained over any aligned
   window of that length. A compliant flow's profile is flat; a bursty
   heavy hitter shows peaks at short timescales well above its
   long-timescale average — the burst-aware view that catches
   adversaries whose mean rate stays under the detection threshold. *)
let bandwidth_profile ts ~from ~until ~timescales =
  List.map
    (fun window ->
      let per = throughput ts ~from ~until ~window in
      let peak = Array.fold_left (fun acc (_, r) -> Float.max acc r) 0. per in
      (window, peak))
    timescales
