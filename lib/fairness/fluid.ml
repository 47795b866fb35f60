type flow = { id : int; weight : float; links : int list }

type result = {
  series : (int * Sim.Timeseries.t) list;
  final : (int * float) list;
}

(* The probe increment per epoch (pkt/s), the epoch (s) and the Euler
   step. Every flow starts at [alpha]. *)
let alpha = 1.

let epoch = 0.5

let dt = epoch /. 10.

let simulate ~capacities ~flows ?(sample = 1.) ~duration () =
  if flows = [] then invalid_arg "Fluid.simulate: no flows";
  let capacity : (int, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (id, c) -> Hashtbl.replace capacity id c) capacities;
  List.iter
    (fun flow ->
      List.iter
        (fun link ->
          if not (Hashtbl.mem capacity link) then
            invalid_arg (Printf.sprintf "Fluid.simulate: unknown link %d" link))
        flow.links)
    flows;
  let n = List.length flows in
  let flows = Array.of_list flows in
  let rates = Array.make n alpha in
  let series = Array.init n (fun _ -> Sim.Timeseries.create ()) in
  let links = List.map fst capacities in
  let steps = int_of_float (Float.round (duration /. dt)) in
  let next_sample = ref sample in
  for step = 1 to steps do
    let t = float_of_int step *. dt in
    (* Per-link reduction requests under the selective-feedback rule. *)
    let request = Array.make n 0. in
    List.iter
      (fun link ->
        let c = Hashtbl.find capacity link in
        let on_link i = List.mem link flows.(i).links in
        let load = ref 0. in
        for i = 0 to n - 1 do
          if on_link i then load := !load +. rates.(i)
        done;
        let excess = !load -. c in
        if excess > 0. then begin
          (* Marker-weighted mean normalized rate: markers arrive in
             proportion to rn, so the running average rav weights each
             flow's rn by itself. *)
          let sum_rn = ref 0. and sum_rn2 = ref 0. in
          for i = 0 to n - 1 do
            if on_link i then begin
              let rn = rates.(i) /. flows.(i).weight in
              sum_rn := !sum_rn +. rn;
              sum_rn2 := !sum_rn2 +. (rn *. rn)
            end
          done;
          let rav = if !sum_rn > 0. then !sum_rn2 /. !sum_rn else 0. in
          (* Tolerate the continuum edge case where every flow sits
             exactly at rav: eligibility at >= rav keeps the system
             controllable. *)
          let eligible_rn = ref 0. in
          for i = 0 to n - 1 do
            if on_link i && rates.(i) /. flows.(i).weight >= rav -. 1e-12 then
              eligible_rn := !eligible_rn +. (rates.(i) /. flows.(i).weight)
          done;
          if !eligible_rn > 0. then
            for i = 0 to n - 1 do
              if on_link i then begin
                let rn = rates.(i) /. flows.(i).weight in
                if rn >= rav -. 1e-12 then
                  request.(i) <-
                    Float.max request.(i) (excess *. rn /. !eligible_rn)
              end
            done
        end)
      links;
    for i = 0 to n - 1 do
      let derivative =
        if request.(i) > 0. then -.request.(i) /. epoch else alpha /. epoch
      in
      rates.(i) <- Float.max 0. (rates.(i) +. (derivative *. dt))
    done;
    if t +. 1e-9 >= !next_sample then begin
      next_sample := !next_sample +. sample;
      Array.iteri (fun i _flow -> Sim.Timeseries.add series.(i) t rates.(i)) flows
    end
  done;
  {
    series = Array.to_list (Array.mapi (fun i flow -> (flow.id, series.(i))) flows);
    final = Array.to_list (Array.mapi (fun i flow -> (flow.id, rates.(i))) flows);
  }
