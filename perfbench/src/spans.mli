(** The benchmark's own spans: wall-clock intervals around its calls into
    the simulator, kept in memory and written out once the benchmark
    ends. Each span names the span that encloses it, so a reader can
    take a layer's self time as its duration minus its children's. *)

type t

val create : unit -> t

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span; nested calls become its
    children. Exception-safe. *)

val record : t -> string -> start_ns:int64 -> end_ns:int64 -> unit
(** Add an interval measured elsewhere (e.g. the set-up phase, which ends
    inside [Workload.run]) as a child of the span currently open. *)

val to_json : t -> Smapp_stats.Json.t
(** Chrome [trace_event] JSON: one complete (["X"]) event per span with
    [args.id]/[args.parent], timestamps in microseconds from the first
    span. *)

val write : t -> string -> unit
(** [write t path] writes {!to_json}, creating [path]'s directory. *)
