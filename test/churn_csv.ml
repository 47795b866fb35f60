(* Golden generator: the full churn battery (three schemes × four
   variants, 80 s runs, default seeds) as the CSV that
   bin/experiments.ml writes to results/churn_battery.csv. dune diffs
   the two on every runtest, so a change to the flow lifecycle, the
   arrival plan or any scheme's dynamics shows up against the
   committed battery. *)

let () = print_string (Workload.Churn.csv_of_groups (Workload.Churn.all ~domains:1 ()))
