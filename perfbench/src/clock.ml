(* CLOCK_MONOTONIC through bechamel's stub: wall time that never steps
   backwards, unlike [Unix.gettimeofday], and real time, unlike the CPU
   seconds of [Sys.time] behind [Workload.result.wall_s]. *)

let now_ns () = Monotonic_clock.now ()

let seconds ~from ~until = Int64.to_float (Int64.sub until from) *. 1e-9
let since t0 = seconds ~from:t0 ~until:(now_ns ())
