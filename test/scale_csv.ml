(* Golden generator: the per-flow CSV of a fixed small scale scenario
   (fat-tree k=4, 64 flows, 5 s) under one scheme, named by the first
   argument: corelite (the default), csfq or drr. dune diffs each
   output against test/golden/scale_fattree_k4{,_csfq,_drr}.csv on
   every runtest — any behavioral drift in the generated-topology
   pipeline (graph, FIB, flow sampling, FIB-plane forwarding, the
   deployment lifecycle, streaming aggregation) shows up as a one-line
   diff with per-flow context. All three schemes share one label, so
   they run the same graph and flow population. *)

let scheme =
  let all = Workload.Scale.[ Corelite; Csfq; Drr ] in
  match Sys.argv with
  | [| _ |] -> Workload.Scale.Corelite
  | [| _; name |] -> (
    match List.find_opt (fun s -> String.equal (Workload.Scale.scheme_name s) name) all with
    | Some s -> s
    | None -> failwith ("scale_csv: unknown scheme " ^ name))
  | _ -> failwith "usage: scale_csv.exe [corelite|csfq|drr]"

let () =
  let engine = Sim.Engine.create () in
  let r =
    Workload.Scale.run ~engine ~seed:42 ~label:"golden/fattree-k4"
      ~graph:(Workload.Scale.Fattree 4) ~n_flows:64 ~scheme ~duration:5. ~csv:true ()
  in
  match r.Workload.Scale.csv with
  | Some csv -> print_string csv
  | None -> failwith "scale_csv: csv missing"
