let with_flags ?metrics ?trace ?prof f =
  let switch flag clear = function
    | None -> ignore
    | Some on ->
        let saved = Atomic.get flag in
        if on then clear ();
        Atomic.set flag on;
        fun () -> Atomic.set flag saved
  in
  let restore_metrics = switch Metrics.enabled Metrics.clear metrics in
  let restore_trace = switch Trace.enabled Trace.clear trace in
  let restore_prof = switch Prof.enabled Prof.reset prof in
  Fun.protect
    ~finally:(fun () ->
      restore_metrics ();
      restore_trace ();
      restore_prof ())
    f
