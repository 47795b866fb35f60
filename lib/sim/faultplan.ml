let check_prob label p =
  if not (Float.is_finite p) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Faultplan.%s: probability %g outside [0, 1]" label p)

let check_time label x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg (Printf.sprintf "Faultplan.%s: time %g must be finite and >= 0" label x)

type loss_model =
  | Bernoulli of float
  | Gilbert_elliott of {
      p_good_bad : float;
      p_bad_good : float;
      loss_good : float;
      loss_bad : float;
    }

let validate_loss = function
  | Bernoulli p -> check_prob "bernoulli" p
  | Gilbert_elliott { p_good_bad; p_bad_good; loss_good; loss_bad } ->
    check_prob "gilbert_elliott.p_good_bad" p_good_bad;
    check_prob "gilbert_elliott.p_bad_good" p_bad_good;
    check_prob "gilbert_elliott.loss_good" loss_good;
    check_prob "gilbert_elliott.loss_bad" loss_bad

type target = All_packets | Markers_only | Data_only

type flap = { down_at : float; up_at : float }

let flap ~down_at ~up_at =
  check_time "flap.down_at" down_at;
  check_time "flap.up_at" up_at;
  if up_at <= down_at then
    invalid_arg
      (Printf.sprintf "Faultplan.flap: up_at %g must follow down_at %g" up_at down_at);
  { down_at; up_at }

(* A periodic square-wave outage: down for [down_for] seconds every
   [period], first outage starting at [first]. *)
let flap_train ~first ~period ~down_for ~count =
  if count < 0 then invalid_arg "Faultplan.flap_train: negative count";
  check_time "flap_train.first" first;
  check_time "flap_train.period" period;
  check_time "flap_train.down_for" down_for;
  if down_for >= period then
    invalid_arg "Faultplan.flap_train: down_for must be shorter than the period";
  List.init count (fun i ->
      let t0 = first +. (float_of_int i *. period) in
      flap ~down_at:t0 ~up_at:(t0 +. down_for))

type link_fault = {
  link : string;
  loss : loss_model option;
  target : target;
  feedback_loss : float;
  flaps : flap list;
}

let link_fault ?loss ?(target = All_packets) ?(feedback_loss = 0.) ?(flaps = []) link
    =
  Option.iter validate_loss loss;
  check_prob "link_fault.feedback_loss" feedback_loss;
  (* Flaps may be given in any order, but they must not overlap: a link
     cannot go down while already down. *)
  let sorted = List.sort (fun a b -> Float.compare a.down_at b.down_at) flaps in
  let rec disjoint = function
    | a :: (b :: _ as rest) ->
      if b.down_at < a.up_at then
        invalid_arg
          (Printf.sprintf
             "Faultplan.link_fault: flaps overlap on %s (down at %g before up at %g)"
             link b.down_at a.up_at);
      disjoint rest
    | [ _ ] | [] -> ()
  in
  disjoint sorted;
  { link; loss; target; feedback_loss; flaps = sorted }

type reset_target = Core_router of string | Edge_agent of int

type reset = { reset_target : reset_target; at : float }

let reset ~at reset_target =
  check_time "reset.at" at;
  { reset_target; at }

type t = {
  label : string;
  seed : int;
  link_faults : link_fault list;
  resets : reset list;
}

let make ~label ~seed ?(link_faults = []) ?(resets = []) () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun lf ->
      if Hashtbl.mem seen lf.link then
        invalid_arg
          ("Faultplan.make: duplicate link fault for " ^ lf.link
         ^ " (merge the specs; each link owns one RNG substream)");
      Hashtbl.replace seen lf.link ())
    link_faults;
  { label; seed; link_faults; resets }

let none = make ~label:"none" ~seed:0 ()

(* A passive plan configures no injector at all: applying it must leave
   every run byte-identical to a fault-free one. *)
let is_passive t =
  t.resets = []
  && List.for_all
       (fun lf ->
         lf.loss = None
         && Floats.is_zero ~tolerance:0. lf.feedback_loss
         && lf.flaps = [])
       t.link_faults

(* Stable substream identities: every draw a fault makes descends from
   (plan seed, this string), so a chaos run replays byte-identically
   from the plan alone, serial or pooled. *)
let stream_id t ~link ~channel =
  Printf.sprintf "fault/%s/%s/%s" t.label link channel
