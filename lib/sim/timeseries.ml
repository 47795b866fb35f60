type t = {
  mutable times : float array;
  mutable values : float array;
  mutable size : int;
}

let create () = { times = [||]; values = [||]; size = 0 }

let grow t =
  let capacity = Array.length t.times in
  if t.size = capacity then begin
    let capacity' = if capacity = 0 then 256 else 2 * capacity in
    let times' = Array.make capacity' 0. in
    let values' = Array.make capacity' 0. in
    Array.blit t.times 0 times' 0 t.size;
    Array.blit t.values 0 values' 0 t.size;
    t.times <- times';
    t.values <- values'
  end

let add t time value =
  grow t;
  t.times.(t.size) <- time;
  t.values.(t.size) <- value;
  t.size <- t.size + 1

let length t = t.size

let to_array t = Array.init t.size (fun i -> (t.times.(i), t.values.(i)))

let last t = if t.size = 0 then None else Some (t.times.(t.size - 1), t.values.(t.size - 1))

let window_mean t ~from ~until =
  let sum = ref 0. and count = ref 0 in
  for i = 0 to t.size - 1 do
    if t.times.(i) >= from && t.times.(i) <= until then begin
      sum := !sum +. t.values.(i);
      incr count
    end
  done;
  if !count = 0 then None else Some (!sum /. float_of_int !count)

let value_at t time =
  (* Binary search for the last index with times.(i) <= time. *)
  if t.size = 0 || t.times.(0) > time then None
  else begin
    let lo = ref 0 and hi = ref (t.size - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.times.(mid) <= time then lo := mid else hi := mid - 1
    done;
    Some t.values.(!lo)
  end

let iter t f =
  for i = 0 to t.size - 1 do
    f t.times.(i) t.values.(i)
  done

let smooth t ~window =
  if window < 0. then invalid_arg "Timeseries.smooth: negative window";
  let out = create () in
  let first = ref 0 in
  let sum = ref 0. in
  for i = 0 to t.size - 1 do
    sum := !sum +. t.values.(i);
    while t.times.(!first) < t.times.(i) -. window do
      sum := !sum -. t.values.(!first);
      incr first
    done;
    add out t.times.(i) (!sum /. float_of_int (i - !first + 1))
  done;
  out
