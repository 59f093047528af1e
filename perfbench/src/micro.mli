(** Layer microbenchmarks: public functions timed outside any
    simulation, each reported as [<name>_ns_per_op] and
    [<name>_bytes_per_op]. *)

type t = {
  name : string;  (** [<layer>.micro_<what>], as in {!Metric.per_layer} *)
  ops : int;  (** operations per timed batch *)
  run : int -> unit;  (** [run n] performs [n] operations *)
}

val all : t list
(** [sim.micro_schedule_run] ([Engine.schedule] + [Engine.run] over a
    batch), [tcp.micro_segment_cycle] ([Segment.stamp]/[release]),
    [netlink.micro_wire_roundtrip] ([Wire.encode]/[decode]),
    [core.micro_pm_msg_roundtrip] ([Pm_msg.event_to_msg]/[event_of_msg]),
    [mptcp.micro_token] and [mptcp.micro_join_hmac] ([Crypto]). *)

val measure : ?scale:float -> t -> float * float
(** [(ns_per_op, bytes_per_op)] over 5 timed batches of [scale * ops]
    operations (default scale 1; the self-tests shrink it), after one untimed
    warm-up batch: the fastest batch's time, the median batch's
    allocation. Raises [Failure] if an operation's output is wrong. *)
