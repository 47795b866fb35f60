(* The one module allowed to spawn domains (lint rule L1). Determinism
   does not come from the scheduler — job placement is racy by design —
   but from every job being closed over its own engine and RNG stream,
   so the payload array is the same whatever the interleaving. *)

type 'a job = { id : string; run : unit -> 'a }

let job ~id run = { id; run }

let default_domains () = Domain.recommended_domain_count ()

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

let run_serial jobs = List.map (fun j -> j.run ()) jobs

let map ?domains jobs =
  let n = List.length jobs in
  let requested = match domains with Some d -> d | None -> default_domains () in
  let workers = Stdlib.min requested n in
  if workers <= 1 then run_serial jobs
  else begin
    let jobs = Array.of_list jobs in
    let results = Array.make n None in
    (* Work stealing off one shared sequence: the atomic cursor is the
       deque head and every idle worker (the coordinator included)
       claims the next pending job. Claimed indices are distinct, so
       each result slot has exactly one writer; Domain.join publishes
       the writes to the coordinator. *)
    let cursor = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let outcome =
            try Value (jobs.(i).run ())
            with e -> Raised (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some outcome;
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list results
    |> List.mapi (fun i r ->
           match r with
           | Some (Value v) -> v
           | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None ->
             (* Unreachable: the cursor hands out every index and workers
                store an outcome before moving on. *)
             invalid_arg
               (Printf.sprintf "Pool.map: job %d (%s) produced no result" i
                  jobs.(i).id))
  end

let map_groups ?domains groups =
  (* One flat batch so workers steal across group boundaries, then
     re-chunked in submission order. *)
  let results = Array.of_list (map ?domains (List.concat_map snd groups)) in
  snd
    (List.fold_left_map
       (fun first (name, jobs) ->
         let n = List.length jobs in
         (first + n, (name, Array.to_list (Array.sub results first n))))
       0 groups)
