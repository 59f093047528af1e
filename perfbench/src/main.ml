(* Command-line front end of the benchmark; see perfbench/README.md.

   main.exe --workload bulk|churn|failover|all [--seed N] [--seconds S]
            [--trace 0|1]

   Prints one [name value unit] row per metric, then the result as a
   one-line JSON object, and exits 1 when a correctness check failed. *)

open Perfbench

let usage =
  "main.exe --workload bulk|churn|failover|all [--seed N] [--seconds S] [--trace 0|1]"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 30.0 and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> fail ("bad --seed " ^ v));
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> fail ("bad --seconds " ^ v));
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; parse rest
    | arg :: _ -> fail ("unexpected argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !workload = "all" then begin
    (* each workload in a fresh process, so peak_heap_mb stays per-run *)
    let status =
      List.fold_left
        (fun worst (w : Workloads.t) ->
          let argv =
            [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed;
               "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; string_of_int !trace |]
          in
          print_endline ("== " ^ w.name);
          flush stdout;
          let pid =
            Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
          in
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> worst
          | Unix.WEXITED n -> max worst n
          | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> max worst 1)
        0 Workloads.all
    in
    exit status
  end;
  let spec =
    match Workloads.find !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  let leg =
    if !trace = 0 then Legs.untraced spec ~seed:!seed ~seconds:!seconds
    else
      Legs.traced spec ~seed:!seed
        ~spans_path:(Printf.sprintf "perfbench/out/spans-%s-seed%d.json" spec.name !seed)
  in
  List.iter prerr_endline leg.Legs.notes;
  print_string (Metric.render leg.Legs.outcome.Metric.metrics);
  print_endline (Smapp_stats.Json.to_string (Metric.to_json leg.Legs.outcome));
  exit (if leg.Legs.outcome.Metric.correct then 0 else 1)
