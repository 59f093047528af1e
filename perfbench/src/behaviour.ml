open Smapp_workload

let digest (r : Workload.result) =
  (* Naming every field (warning 9 is an error here) makes a new result
     field a compile error until it is hashed or excluded on purpose. *)
  let {
    Workload.launched;
    completed;
    peak_concurrent;
    bytes_total;
    fcts;
    goodputs;
    subflows_created;
    failovers;
    sim_duration_s;
    wall_s = _;
    engine_events = _;
    events_per_sec = _;
  } =
    r
  in
  let b = Buffer.create 4096 in
  let floats label xs =
    Printf.bprintf b "%s=" label;
    List.iter (fun f -> Printf.bprintf b "%Lx," (Int64.bits_of_float f)) xs;
    Buffer.add_char b ';'
  in
  Printf.bprintf b "launched=%d;completed=%d;peak=%d;bytes=%d;subflows=%d;failovers=%d;sim=%Lx;"
    launched completed peak_concurrent bytes_total subflows_created failovers
    (Int64.bits_of_float sim_duration_s);
  floats "fcts" fcts;
  floats "goodputs" goodputs;
  Digest.to_hex (Digest.string (Buffer.contents b))
