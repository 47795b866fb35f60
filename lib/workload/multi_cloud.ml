type chained = {
  agent_a : Corelite.Edge.t;
  aggregate_b : Corelite.Aggregate.t;
  delivered : int ref;
}

type t = {
  chains : (int, chained) Hashtbl.t;
  locals : (int, Corelite.Edge.t) Hashtbl.t;  (* flows living in one cloud only *)
  deployment_a : Corelite.Deployment.t;
  deployment_b : Corelite.Deployment.t;
}

let build ?(params = Corelite.Params.default) ?(seed = 42) ?(handoff_capacity = 64)
    ?(backpressure = true) ~cloud_a ~cloud_b () =
  if cloud_a.Network.engine != cloud_b.Network.engine then
    invalid_arg "Multi_cloud.build: clouds must share one engine";
  let rng = Sim.Rng.create seed in
  let epoch = params.Corelite.Params.source.Net.Source.epoch in
  let shared =
    List.filter_map
      (fun flow_a ->
        match
          List.find_opt
            (fun flow_b -> flow_b.Net.Flow.id = flow_a.Net.Flow.id)
            cloud_b.Network.flows
        with
        | Some flow_b -> Some (flow_a, flow_b)
        | None -> None)
      cloud_a.Network.flows
  in
  if shared = [] then invalid_arg "Multi_cloud.build: clouds share no flow id";
  let chains = Hashtbl.create 8 in
  let locals = Hashtbl.create 8 in
  let agents_a = Hashtbl.create 8 in
  let agents_b = Hashtbl.create 8 in
  (* Flows present in only one cloud are ordinary local flows there. *)
  let add_locals cloud agents =
    List.iter
      (fun flow ->
        let id = flow.Net.Flow.id in
        if not (List.exists (fun (a, _) -> a.Net.Flow.id = id) shared) then begin
          let agent =
            Corelite.Edge.create ~params ~topology:cloud.Network.topology ~flow
              ~epoch_offset:(Sim.Rng.float rng epoch) ()
          in
          Hashtbl.replace locals id agent;
          Hashtbl.replace agents id agent
        end)
      cloud.Network.flows
  in
  add_locals cloud_a agents_a;
  add_locals cloud_b agents_b;
  List.iter
    (fun (flow_a, flow_b) ->
      let id = flow_a.Net.Flow.id in
      (* Cloud B first: its hand-off aggregate consumes what A emits. *)
      let aggregate_b =
        Corelite.Aggregate.create ~params ~topology:cloud_b.Network.topology
          ~flow:flow_b
          ~epoch_offset:(Sim.Rng.float rng epoch)
          ~queue_capacity:handoff_capacity ()
      in
      let delivered = ref 0 in
      Corelite.Aggregate.set_consumer aggregate_b ~micro:0 (fun _ -> incr delivered);
      (* Cloud A's ordinary edge agent, with its egress delivering into
         B's ingress buffer. Cloud-A markers must not leak into B; B's
         aggregate re-marks under its own normalized rate. *)
      let agent_cell = ref None in
      let agent_a =
        Corelite.Edge.create ~params ~topology:cloud_a.Network.topology ~flow:flow_a
          ~epoch_offset:(Sim.Rng.float rng epoch)
          ~deliver:(fun pkt ->
            Net.Packet.clear_marker pkt;
            let accepted = Corelite.Aggregate.submit aggregate_b pkt in
            (* Inter-domain backpressure: a full hand-off buffer means
               cloud B grants this flow less than A does; throttle A's
               edge exactly like core feedback would. *)
            if (not accepted) && backpressure then
              match !agent_cell with
              | Some agent ->
                Corelite.Edge.receive_feedback agent
                  ~link_id:(Corelite.Edge.handoff_link agent)
                  {
                    Net.Packet.edge_id = (Net.Flow.ingress flow_a).Net.Node.id;
                    flow_id = id;
                    normalized_rate = 0.;
                  }
              | None -> ())
          ()
      in
      agent_cell := Some agent_a;
      Hashtbl.replace chains id { agent_a; aggregate_b; delivered };
      Hashtbl.replace agents_a id agent_a;
      Hashtbl.replace agents_b id (Corelite.Aggregate.edge aggregate_b))
    shared;
  let deployment_a =
    Corelite.Deployment.of_agents ~params ~rng ~topology:cloud_a.Network.topology
      ~agents:agents_a ~core_links:cloud_a.Network.core_links ()
  in
  let deployment_b =
    Corelite.Deployment.of_agents ~params ~rng ~topology:cloud_b.Network.topology
      ~agents:agents_b ~core_links:cloud_b.Network.core_links ()
  in
  { chains; locals; deployment_a; deployment_b }

let deployment_a t = t.deployment_a

let deployment_b t = t.deployment_b

let chain t flow =
  match Hashtbl.find_opt t.chains flow with
  | Some c -> c
  | None -> raise Not_found

let start t =
  Hashtbl.iter
    (fun _ c ->
      Corelite.Aggregate.start c.aggregate_b;
      Corelite.Edge.start c.agent_a)
    t.chains;
  Hashtbl.iter (fun _ agent -> Corelite.Edge.start agent) t.locals

let stop t =
  Hashtbl.iter
    (fun _ c ->
      Corelite.Edge.stop c.agent_a;
      Corelite.Aggregate.stop c.aggregate_b)
    t.chains;
  Hashtbl.iter (fun _ agent -> Corelite.Edge.stop agent) t.locals

let delivered t ~flow = !((chain t flow).delivered)

let handoff_drops t ~flow = Corelite.Aggregate.edge_drops (chain t flow).aggregate_b

let agent_a t ~flow = (chain t flow).agent_a

let local_agent t ~flow =
  match Hashtbl.find_opt t.locals flow with
  | Some agent -> agent
  | None -> raise Not_found

let aggregate_b t ~flow = (chain t flow).aggregate_b
