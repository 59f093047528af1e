(** Metric names, units and the benchmark's output record. *)

type t = { name : string; unit : string; value : float }

val end_to_end : (string * string) list
(** [(name, unit)] of every end-to-end metric, in output order: what a
    user of the simulator sees, measured with [Prof], [Metrics] and
    [Trace] all off. [BENCHMARK.json] lists the same pairs. *)

val per_layer : (string * string) list
(** [(name, unit)] of every per-layer metric the traced leg emits, in
    output order. Names are [<layer>.<metric>]. *)

val make : string -> float -> t
(** [make name v] takes the unit from the tables above. Raises
    [Invalid_argument] on a name in neither table. *)

val div : if_zero:float -> float -> float -> float
(** [div ~if_zero n d] is [n /. d], or [if_zero] when [d = 0.] — each
    call site states what an empty denominator means, so no output is
    ever NaN or infinite. *)

val median : float list -> float
(** Raises [Invalid_argument] on the empty list. *)

type outcome = {
  correct : bool;
  attempted : int;  (** connections launched by one simulation *)
  failed : int;  (** launched connections that never completed *)
  metrics : t list;
}

val to_json : outcome -> Smapp_stats.Json.t
(** [{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}]. *)

val render : t list -> string
(** One [name value unit] row per metric, for humans. *)
