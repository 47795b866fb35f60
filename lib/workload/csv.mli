(** CSV export of experiment series (for plotting the figures).

    Rendering and writing are split so pool jobs can return CSV
    payloads as strings — the byte-level currency of the serial-vs-
    parallel determinism checks — while the coordinator alone touches
    the filesystem. *)

(** [field s] quotes one CSV field per RFC 4180: if [s] contains a
    comma, a double quote or a line break it is wrapped in double
    quotes with embedded quotes doubled; otherwise it is returned
    unchanged. *)
val field : string -> string

(** [row fields] joins quoted fields with commas (no trailing
    newline). *)
val row : string list -> string

(** [parse text] reads RFC 4180 CSV back into rows of unquoted fields
    (LF or CRLF line ends; quoted fields may span lines). Inverse of
    {!row} up to line assembly: [parse (row f ^ "\n") = [f]].
    @raise Invalid_argument on an unterminated quoted field. *)
val parse : string -> string list list

(** Render a {!Sim.Metrics} registry as CSV ([name,kind,value,help]) —
    probes are sampled here. Help texts are free-form, so fields go
    through {!field}; the output round-trips through {!parse}. *)
val of_metrics : Sim.Metrics.t -> string

(** The three per-result payloads, as [(kind, csv)] pairs with kinds
    ["rates"], ["goodput"] and ["cumulative"]. *)
val result_strings : Runner.result -> (string * string) list

(** [write_series ~path series] writes [to_string series] to [path]. *)
val write_series : path:string -> (int * Sim.Timeseries.t) list -> unit

(** Write [<prefix>_rates.csv], [<prefix>_goodput.csv] and
    [<prefix>_cumulative.csv] under [dir] (created if missing). *)
val write_result : dir:string -> prefix:string -> Runner.result -> unit
