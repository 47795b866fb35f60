include Net.Agents.Make (struct
  include Edge

  type agent = t

  type core = Core.t

  let name = "Csfq.Deployment"
end)

let build ?(attach_cores = true) ~params ~rng ~topology ~flows ~core_links () =
  let engine = Net.Topology.engine topology in
  create ~rng ~topology ~epoch:params.Params.source.Net.Source.epoch
    ~make_agent:(fun ~flow ~floor ~epoch_offset ->
      Edge.create ~params ~topology ~flow ~floor ~epoch_offset ())
    ~flows ~core_links
    ~attach:(fun ~agents ~drops_by_flow ->
      List.filter_map
        (fun link ->
          (* Only the full CSFQ scheme installs core logic; the "plain"
             variant (DropTail/RED/FRED ablation) keeps the loss
             notification channel but no fair-share filtering. *)
          let core =
            if attach_cores then Some (Core.attach ~params ~rng:(Sim.Rng.split rng) link)
            else None
          in
          (* Any loss on the link is reported to the source after the
             reverse propagation delay; buffer overflows additionally
             shrink the fair-share estimate (CSFQ heuristic). *)
          link.Net.Link.on_drop <-
            Some
              (fun reason pkt ->
                let flow = pkt.Net.Packet.flow in
                Net.Flowtable.Count.incr drops_by_flow flow;
                (match (reason, core) with
                | Net.Link.Queue_full, Some core -> Core.note_overflow core
                | ( ( Net.Link.Queue_full | Net.Link.Filtered | Net.Link.Injected
                    | Net.Link.Down ),
                    _ ) -> ());
                match Net.Flowtable.find agents flow with
                | None -> ()
                | Some agent ->
                  let delay = Edge.loss_delay agent ~link_id:link.Net.Link.id in
                  Sim.Engine.schedule engine ~delay (fun () -> Edge.note_loss agent));
          core)
        core_links)
