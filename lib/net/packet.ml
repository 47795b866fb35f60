type marker = { edge_id : int; flow_id : int; normalized_rate : float }

type t = {
  id : int;
  flow : int;
  micro : int;
  size : int;
  mutable dst : int;
  created : float;
  mutable marker : marker option;
  mutable label : float;
}

let default_size = 1000

let make ~id ~flow ?(micro = 0) ?(size = default_size) ?marker ~created () =
  { id; flow; micro; size; dst = -1; created; marker; label = -1. }

let has_marker t = Option.is_some t.marker
