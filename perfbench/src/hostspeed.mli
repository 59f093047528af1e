(** Host speed, measured next to the runs it scales.

    On a shared host the same run's wall time drifts by a quarter or more
    over minute-long phases, for memory-bound and CPU-bound code alike, as
    the other tenants' load comes and goes. A fixed probe timed right
    before and after a run tracks that drift, and the benchmark reports
    wall times scaled to a host where the probe takes {!reference_s}. The
    probe does not touch the simulator: its 16 MB array lives off the
    OCaml heap, so neither the GC settings nor the program's heap change
    its time. *)

val reference_s : float
(** 0.1 s: about the probe's time on the 2-vCPU Xeon VM the benchmark's
    bounds were measured on. *)

val probe : unit -> float
(** Wall seconds of the probe: six passes of random reads and writes over
    a 16 MB off-heap array, after one untimed pass that brings it back
    into cache, then a dependent integer chain. *)

val around : (unit -> 'a) -> 'a * float
(** [around f] runs [f] between two probes and returns its result with
    the scale factor [reference_s /. mean probe time]: multiply a wall
    time measured inside [f] by it. *)
