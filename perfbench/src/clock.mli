(** Monotonic wall clock. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary fixed origin; never decreases. *)

val seconds : from:int64 -> until:int64 -> float
(** [until - from] in seconds. *)

val since : int64 -> float
(** Seconds elapsed since a {!now_ns} reading. *)
