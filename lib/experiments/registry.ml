type scale = Quick | Default | Full

let scale_name = function Quick -> "quick" | Default -> "default" | Full -> "full"

type _ kind = Int : int kind | Float : float kind

type 'a param = {
  name : string;
  doc : string;
  kind : 'a kind;
  cli : 'a;
  quick : 'a;
  default : 'a;
  full : 'a;
}

type packed = Param : 'a param -> packed
type binding = Bind : 'a param * 'a -> binding
type params = binding list

let at_scale scale =
  List.map (fun (Param p) ->
      Bind (p, match scale with Quick -> p.quick | Default -> p.default | Full -> p.full))

let get : type a. params -> a param -> a =
 fun params p ->
  let rec find : params -> a = function
    | [] -> invalid_arg ("Registry.get: no value bound for --" ^ p.name)
    | Bind (q, v) :: rest -> (
        if q.name <> p.name then find rest
        else match (p.kind, q.kind) with Int, Int -> v | Float, Float -> v | _ -> find rest)
  in
  find params

type outcome = { report : string; metrics : (string * float) list }

type t = {
  name : string;
  doc : string;
  params : packed list;
  sweeps : bool;
  run : ?pool:Smapp_par.Lanes.t -> params -> outcome;
}

(* --- report helpers ----------------------------------------------------------- *)

let banner b title =
  Printf.bprintf b "%s\n%s\n" title (String.make (String.length title) '=')

let subbanner b title = Printf.bprintf b "\n--- %s ---\n" title
let row b name samples = Printf.bprintf b "%s\n" (Smapp_stats.Cdf.quantile_row name samples)
let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))

let param kind name ~doc ~cli ~quick ~default ~full = { name; doc; kind; cli; quick; default; full }
let seed = param Int "seed" ~doc:"Random seed." ~cli:42 ~quick:42 ~default:42 ~full:42

(* --- Fig 2a ------------------------------------------------------------------- *)

let fig2a ?pool:_ params =
  let seed = get params seed in
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  banner b "Fig 2a — smart backup: seq-number trace and failover time";
  pr
    "paper: transfer starts on the primary; loss jumps to 30%% at t=1s; when\n\
     the RTO exceeds 1s the controller kills the primary and the transfer\n\
     continues on the backup path (their trace switches at ~2s).\n\n";
  let r = Fig2a.run ~seed () in
  let metrics =
    match r.Fig2a.failover_at with
    | Some t ->
        pr "measured: controller switched to the backup subflow at %.3f s\n" t;
        [ ("failover_s", t) ]
    | None ->
        pr "measured: NO failover (unexpected)\n";
        []
  in
  let last_master =
    match List.rev r.Fig2a.master.Fig2a.points with (t, _) :: _ -> t | [] -> 0.0
  in
  let first_backup =
    match r.Fig2a.backup.Fig2a.points with (t, _) :: _ -> t | [] -> nan
  in
  pr "last data on master: %.3f s; first data on backup: %.3f s\n" last_master first_backup;
  pr "bytes delivered in %.0f s horizon: %d\n" r.Fig2a.duration r.Fig2a.bytes_delivered;
  Buffer.add_string b
    (Smapp_stats.Ascii_plot.scatter ~width:70 ~height:14 ~x_label:"relative time (s)"
       ~y_label:"seq number (10^5 B)"
       [ ("Master", r.Fig2a.master.Fig2a.points); ("Back up", r.Fig2a.backup.Fig2a.points) ]);
  subbanner b "ablation: RTO threshold sweep (when does the switch happen?)";
  List.iter
    (fun thr ->
      let r = Fig2a.run ~seed ~rto_threshold:thr () in
      pr "  threshold %.2fs -> failover at %s\n" thr
        (match r.Fig2a.failover_at with Some t -> Printf.sprintf "%.3fs" t | None -> "never"))
    [ 0.5; 1.0; 2.0 ];
  { report = Buffer.contents b; metrics }

(* --- §4.2 text: stock backup semantics ------------------------------------------ *)

let loss = param Float "loss" ~doc:"Loss ratio." ~cli:0.30 ~quick:0.30 ~default:0.30 ~full:0.30

let backoff ?pool:_ params =
  let loss = get params loss in
  let b = Buffer.create 1024 in
  let pr fmt = Printf.bprintf b fmt in
  banner b "Section 4.2 text — binary backup semantics take minutes to fail over";
  pr
    "paper: with plain RFC 6824 backup flags, the primary keeps doubling its\n\
     RTO (15 doublings on Linux) and only dies after ~12 minutes.\n\n";
  let r = Backoff.run ~loss:1.0 () in
  (match r.Backoff.subflow_died_at with
  | Some t ->
      pr
        "measured (total loss): primary killed after %.0f s (%.1f min), %d RTO expirations, max RTO %.0f s\n"
        t (t /. 60.) r.Backoff.rto_expirations r.Backoff.max_rto_seen
  | None -> pr "measured: primary still alive at horizon\n");
  let r = Backoff.run ~loss ~horizon:600.0 () in
  (match r.Backoff.subflow_died_at with
  | Some t -> pr "measured (%.0f%% loss): primary died at %.0f s\n" (loss *. 100.) t
  | None ->
      pr
        "measured (%.0f%% loss): primary NEVER dies within 10 min — occasional\n\
         successful retransmissions keep resetting the retry counter, so the\n\
         stock failover is even worse than the paper's 12 minutes\n"
        (loss *. 100.));
  (match (Fig2a.run ()).Fig2a.failover_at with
  | Some t -> pr "vs. the Fig 2a controller, measured switching to the backup at %.3f s.\n" t
  | None -> pr "vs. the Fig 2a controller, which did NOT switch (unexpected).\n");
  { report = Buffer.contents b; metrics = [] }

(* --- Fig 2b ------------------------------------------------------------------- *)

let fig2b_runs = param Int "runs" ~doc:"Seeds per curve." ~cli:5 ~quick:2 ~default:5 ~full:10
let blocks = param Int "blocks" ~doc:"Blocks per run." ~cli:30 ~quick:15 ~default:30 ~full:30

let fig2b ?pool params =
  let seeds = Harness.seeds (get params fig2b_runs) and blocks = get params blocks in
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  banner b "Fig 2b — CDF of 64 KB block completion times (smart streaming)";
  pr
    "paper: with the default full-mesh PM the CDF grows a multi-second tail\n\
     as loss rises; the smart-stream controller keeps the CDF tight for\n\
     10-40%% loss.\n\n";
  (* one CDF row per loss ratio; returns the (10%, 40%) p90s *)
  let sweep variant label =
    let p90 loss =
      let r = Fig2b.run ?pool ~seeds ~blocks ~loss ~variant () in
      row b (Printf.sprintf "%s %.0f%%" label (loss *. 100.)) r.Fig2b.delays;
      match r.Fig2b.delays with
      | [] -> Float.nan
      | d -> Smapp_stats.Cdf.quantile (Smapp_stats.Cdf.of_samples d) 0.9
    in
    let p90s = List.map p90 [ 0.10; 0.20; 0.30; 0.40 ] in
    (List.hd p90s, List.nth p90s 3)
  in
  let fm10, fm40 = sweep Fig2b.Default_fullmesh "fullmesh" in
  let sm10, sm40 = sweep Fig2b.Smart_stream "smart-stream" in
  pr
    "\nshape check (p90, 10%% -> 40%% loss):\n\
    \  fullmesh      %.3f -> %.3f s (x%.2f)\n\
    \  smart-stream  %.3f -> %.3f s (x%.2f)\n\
     fullmesh's tail %s;\n\
     smart-stream's p90 at 40%% loss is %s fullmesh's.\n"
    fm10 fm40 (fm40 /. fm10) sm10 sm40 (sm40 /. sm10)
    (if fm40 >= 1.0 then "reaches seconds, as in the paper"
     else "stays under a second (the paper's grows into seconds)")
    (if sm40 < fm40 then "below" else "not below");
  { report = Buffer.contents b; metrics = [] }

(* --- scheduler ablation on the Fig 2b workload ------------------------------------ *)

(* lowest-RTT vs round-robin with both subflows open, 20% loss on path 0 *)
let scheduler_delays ?pool ~seeds ~blocks make_sched =
  List.concat
  @@ Harness.sweep ?pool
       (fun seed ->
         let open Smapp_netsim in
         let open Smapp_mptcp in
         let pair = Harness.make_pair ~seed () in
         Topology.set_duplex_loss (Harness.path pair 0).Topology.cable 0.20;
         let receiver = ref None in
         Endpoint.listen pair.Harness.server_ep ~port:80 (fun conn ->
             receiver := Some (Smapp_apps.Stream_app.receiver conn ~blocks ()));
         let conn =
           Endpoint.connect pair.Harness.client_ep ~src:(Harness.client_addr pair 0)
             ~dst:(Harness.server_endpoint pair 0 80) ()
         in
         Connection.set_scheduler conn (make_sched ());
         Connection.subscribe conn (function
           | Connection.Established ->
               ignore
                 (Connection.add_subflow conn ~src:(Harness.client_addr pair 1)
                    ~dst:(Harness.server_endpoint pair 1 80) ())
           | _ -> ());
         ignore (Smapp_apps.Stream_app.sender conn ~blocks ());
         Harness.run_seconds pair.Harness.engine (float_of_int blocks +. 30.0);
         match !receiver with
         | Some r -> Smapp_apps.Stream_app.block_delays r
         | None -> [])
       seeds

let scheduler_ablation ?pool _params =
  let seeds = Harness.seeds 3 and blocks = 20 in
  let b = Buffer.create 512 in
  banner b "Ablation — scheduler choice on the Fig 2b workload";
  row b "lowest-rtt"
    (scheduler_delays ?pool ~seeds ~blocks (fun () -> Smapp_mptcp.Scheduler.lowest_rtt));
  row b "round-robin"
    (scheduler_delays ?pool ~seeds ~blocks (fun () -> Smapp_mptcp.Scheduler.round_robin ()));
  { report = Buffer.contents b; metrics = [] }

(* --- Fig 2c ------------------------------------------------------------------- *)

let fig2c_runs = param Int "runs" ~doc:"Runs per variant." ~cli:20 ~quick:4 ~default:12 ~full:20
let mb = param Int "mb" ~doc:"File size in MB." ~cli:100 ~quick:15 ~default:40 ~full:100

let fig2c ?pool params =
  let mb = get params mb and runs = get params fig2c_runs in
  let file_bytes = mb * 1_000_000 in
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  banner b "Fig 2c — 100 MB over 4 ECMP paths: refresh controller vs ndiffports";
  pr
    "paper (100 MB): ndiffports clusters at ~28/37/55 s for 4/3/2 paths used;\n\
     refresh converges to all 4 paths (best possible 27.8 s, single path 111.7 s).\n\
     this run: %d MB files, %d runs/variant; completion scales ~linearly in size\n\
     (multiply by %.1f to compare with the paper's absolute numbers).\n\n"
    mb runs
    (100.0 /. float_of_int mb);
  let seeds = Harness.seeds runs in
  let show variant =
    let r = Fig2c.run ?pool ~seeds ~file_bytes ~variant () in
    let name = Fig2c.variant_name variant in
    row b name r.Fig2c.completion_times;
    pr "%-24s  paths used per run: %s\n" ""
      (String.concat "," (List.map string_of_int r.Fig2c.paths_used_final));
    let median =
      match r.Fig2c.completion_times with
      | [] -> []
      | samples ->
          let cdf = Smapp_stats.Cdf.of_samples samples in
          [ (name ^ "_median_s", Smapp_stats.Cdf.quantile cdf 0.5) ]
    in
    (r, median)
  in
  let nd, nd_median = show Fig2c.Ndiffports in
  let rf, rf_median = show Fig2c.Refresh in
  pr "ideal on 4 paths at this size: %.1f s\n"
    (Fig2c.ideal_completion ~file_bytes ~paths:4 ~rate_bps:8e6);
  let avg_paths l = mean (List.map float_of_int l) in
  pr
    "shape check: refresh uses %.1f paths on average vs ndiffports' %.1f;\n\
     refresh's worst run beats ndiffports' worst (%.1f s vs %.1f s).\n"
    (avg_paths rf.Fig2c.paths_used_final)
    (avg_paths nd.Fig2c.paths_used_final)
    (List.fold_left Float.max 0. rf.Fig2c.completion_times)
    (List.fold_left Float.max 0. nd.Fig2c.completion_times);
  { report = Buffer.contents b; metrics = nd_median @ rf_median }

(* --- Fig 3 -------------------------------------------------------------------- *)

let requests = param Int "requests" ~doc:"GET count." ~cli:1000 ~quick:150 ~default:600 ~full:1000

let stress =
  param Float "stress" ~doc:"CPU stress multiplier." ~cli:1.6 ~quick:1.5 ~default:1.5 ~full:1.5

let fig3 ?pool params =
  let requests = get params requests and stress = get params stress in
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  banner b "Fig 3 — CAPA-SYN to JOIN-SYN delay: kernel vs userspace path manager";
  pr
    "paper (1000 GETs of 512 KB): the userspace manager adds ~23 us on average,\n\
     and stays within +37 us under CPU stress. this run: %d GETs.\n\n"
    requests;
  let kernel, user, stressed =
    match
      Fig3.sweep ?pool
        [
          (Fig3.Kernel, 1.0, requests);
          (Fig3.Userspace, 1.0, requests);
          (Fig3.Userspace, stress, requests);
        ]
    with
    | [ kernel; user; stressed ] -> (kernel, user, stressed)
    | rs -> Smapp_sim.Bug.fail "Fig3.sweep returned %d results for 3 specs" (List.length rs)
  in
  let ms l = List.map (fun d -> d *. 1000.) l in
  row b "kernel (ms)" (ms kernel.Fig3.delays);
  row b "userspace (ms)" (ms user.Fig3.delays);
  row b (Printf.sprintf "userspace stress x%.1f" stress) (ms stressed.Fig3.delays);
  let base = mean kernel.Fig3.delays in
  let extra_us = (mean user.Fig3.delays -. base) *. 1e6 in
  pr
    "\nmeasured: userspace adds %.1f us on average (paper ~23 us); under CPU\n\
     stress the extra delay is %.1f us (paper: stays below 37 us).\n"
    extra_us
    ((mean stressed.Fig3.delays -. base) *. 1e6);
  subbanner b "traced decomposition of the userspace gap";
  let bd = Fig3.traced_breakdown ~requests:(min requests 300) () in
  let model = Fig3.breakdown_model_us bd in
  pr
    "  netlink k->u %.2f us + u->k %.2f us - in-kernel reaction %.2f us\n\
    \  = %.2f us vs measured %.2f us (%.0f%%)\n"
    bd.Fig3.b_up_us bd.Fig3.b_down_us bd.Fig3.b_kernel_pm_us model bd.Fig3.b_extra_us
    (100. *. model /. bd.Fig3.b_extra_us);
  subbanner b "ablation: netlink channel latency sweep";
  let crossings = [ 6; 12; 24; 48 ] in
  List.iter2
    (fun us r ->
      pr "  crossing ~%2d us -> mean CAPA-JOIN delay %.3f ms\n" us (mean r.Fig3.delays *. 1000.))
    crossings
    (Fig3.sweep ?pool
       (List.map
          (fun us -> (Fig3.Userspace, float_of_int us /. 12.0, min requests 200))
          crossings));
  let metrics =
    [
      ("userspace_extra_us", extra_us);
      ("netlink_up_us", bd.Fig3.b_up_us);
      ("netlink_down_us", bd.Fig3.b_down_us);
      ("kernel_pm_us", bd.Fig3.b_kernel_pm_us);
    ]
    @ (match bd.Fig3.b_decision_rtt_us with Some d -> [ ("decision_rtt_us", d) ] | None -> [])
    @ [
        ("breakdown_model_us", model);
        ( "breakdown_vs_measured_ratio",
          if bd.Fig3.b_extra_us = 0.0 then 0.0 else model /. bd.Fig3.b_extra_us );
      ]
  in
  { report = Buffer.contents b; metrics }

(* --- §4.1: fullmesh recovery ------------------------------------------------------ *)

let fullmesh ?pool:_ params =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.bprintf b fmt in
  banner b "Section 4.1 — fullmesh controller keeps long-lived connections alive";
  pr
    "paper: the 800-line userspace fullmesh reimplementation maintains the\n\
     subflows under failures, with per-errno re-establishment timers.\n\n";
  let r = Fullmesh_recovery.run ~seed:(get params seed) () in
  List.iter
    (fun c ->
      pr "  %7.1fs  %-28s subflows=%d\n" c.Fullmesh_recovery.at c.Fullmesh_recovery.label
        c.Fullmesh_recovery.subflows_alive)
    r.Fullmesh_recovery.checkpoints;
  pr
    "controller created %d subflows (1 mesh + %d recoveries); %d keepalives sent; %d subflows at end\n"
    r.Fullmesh_recovery.subflows_created_by_controller r.Fullmesh_recovery.reconnects
    r.Fullmesh_recovery.messages_sent r.Fullmesh_recovery.final_subflows;
  { report = Buffer.contents b; metrics = [] }

let all =
  [
    {
      name = "fig2a";
      doc = "Smart backup trace (Fig 2a)";
      params = [ Param seed ];
      sweeps = false;
      run = fig2a;
    };
    {
      name = "backoff";
      doc = "RFC-style backup failover latency (4.2 text)";
      params = [ Param loss ];
      sweeps = false;
      run = backoff;
    };
    {
      name = "fig2b";
      doc = "Smart streaming CDFs (Fig 2b)";
      params = [ Param fig2b_runs; Param blocks ];
      sweeps = true;
      run = fig2b;
    };
    {
      name = "scheduler_ablation";
      doc = "Lowest-RTT vs round-robin scheduling on the Fig 2b workload (ablation)";
      params = [];
      sweeps = true;
      run = scheduler_ablation;
    };
    {
      name = "fig2c";
      doc = "ECMP refresh controller vs ndiffports (Fig 2c)";
      params = [ Param fig2c_runs; Param mb ];
      sweeps = true;
      run = fig2c;
    };
    {
      name = "fig3";
      doc = "Kernel vs userspace PM latency (Fig 3)";
      params = [ Param requests; Param stress ];
      sweeps = true;
      run = fig3;
    };
    {
      name = "fullmesh";
      doc = "Fullmesh controller failure recovery (4.1)";
      params = [ Param seed ];
      sweeps = false;
      run = fullmesh;
    };
  ]
