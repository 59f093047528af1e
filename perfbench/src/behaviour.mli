(** The behaviour digest: a hash of everything a workload run did, and
    nothing about how much engine work it took.

    It covers every [Workload.result] field except [engine_events],
    [wall_s] and [events_per_sec], so a change that removes engine events
    without changing behaviour keeps the digest (unlike
    [Workload.digest], which hashes the event count). *)

val digest : Smapp_workload.Workload.result -> string
(** Hex MD5 over the behaviour fields; floats hashed by their exact bit
    patterns. *)
