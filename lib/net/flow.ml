type t = { id : int; weight : float; path : Node.t list }

let make ~id ~weight ~path =
  if weight <= 0. then invalid_arg "Flow.make: weight must be positive";
  if not (Float.is_finite weight) then invalid_arg "Flow.make: weight must be finite";
  if List.length path < 2 then invalid_arg "Flow.make: path needs >= 2 nodes";
  { id; weight; path }

let ingress t = List.hd t.path

let egress t =
  match List.rev t.path with
  | last :: _ -> last
  | [] -> assert false

let links t topology = Topology.path_links topology t.path

let first_link t topology =
  match t.path with
  | ingress :: next :: _ -> List.hd (Topology.path_links topology [ ingress; next ])
  | [ _ ] | [] -> invalid_arg "Flow.first_link: path needs >= 2 nodes"

let upstream_delay t topology link =
  let rec walk acc = function
    | hop :: rest ->
      if hop.Link.id = link.Link.id then Some acc
      else walk (acc +. hop.Link.delay) rest
    | [] -> None
  in
  walk 0. (links t topology)

type delays = { ids : int array; upstream : float array }

let delays t topology =
  let path = Array.of_list (links t topology) in
  let upstream = Array.make (Array.length path) 0. in
  (* Summed in path order, so each entry is bit-identical to what
     [upstream_delay] returns for that link. *)
  for i = 1 to Array.length path - 1 do
    upstream.(i) <- upstream.(i - 1) +. path.(i - 1).Link.delay
  done;
  { ids = Array.map (fun l -> l.Link.id) path; upstream }

(* Top-level, so a lookup builds no closure. *)
let rec scan d link_id i =
  if i < 0 || d.ids.(i) = link_id then i else scan d link_id (i - 1)

let position d ~link_id = scan d link_id (Array.length d.ids - 1)

let delay_to d ~link_id =
  let i = position d ~link_id in
  if i < 0 then 0. else d.upstream.(i)
