module Json = Smapp_stats.Json

type t = { name : string; unit : string; value : float }

let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("conns_per_s", "conn/s");
    ("alloc_mb", "MB");
    ("peak_heap_mb", "MB");
    ("retained_kb", "KB");
    ("conns_completed_share", "ratio");
  ]

let micro name = [ (name ^ "_ns_per_op", "ns/op"); (name ^ "_bytes_per_op", "B/op") ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.timer_events", "count");
    ("sim.timer_ns_per_event", "ns/event");
    ("sim.timer_bytes_per_event", "B/event");
    ("sim.outside_dispatch_share", "ratio");
    ("sim.shard_overhead_ratio", "ratio");
    ("sim.shard_mailbox_deliveries", "count");
  ]
  @ micro "sim.micro_schedule_run"
  @ [
      ("netsim.link_delivery_events", "count");
      ("netsim.link_delivery_ns_per_event", "ns/event");
      ("netsim.link_delivery_bytes_per_event", "B/event");
      ("netsim.packets_tx", "count");
      ("netsim.bytes_tx", "B");
      ("netsim.router_forwarded", "count");
      ("netsim.rx_discarded", "count");
      ("netsim.delivery_ratio", "ratio");
      ("tcp.segments_received", "count");
      ("tcp.retransmits", "count");
      ("tcp.rto_fired", "count");
      ("tcp.rst_sent", "count");
      ("tcp.retransmit_ratio", "ratio");
      ("tcp.segment_takes", "count");
      ("tcp.segment_fresh", "count");
      ("tcp.segment_high_water", "count");
      ("tcp.segment_release_ratio", "ratio");
    ]
  @ micro "tcp.micro_segment_cycle"
  @ [ ("mptcp.subflows_created", "count"); ("mptcp.failovers", "count") ]
  @ micro "mptcp.micro_token"
  @ micro "mptcp.micro_join_hmac"
  @ [
      ("netlink.events", "count");
      ("netlink.ns_per_event", "ns/event");
      ("netlink.bytes_per_event", "B/event");
      ("netlink.dropped", "count");
    ]
  @ micro "netlink.micro_wire_roundtrip"
  @ [
      ("core.pm_dispatch_events", "count");
      ("core.pm_dispatch_ns_per_event", "ns/event");
      ("core.pm_dispatch_bytes_per_event", "B/event");
      ("core.pm_commands", "count");
      ("core.pm_events", "count");
      ("core.pm_command_retries", "count");
      ("core.pm_command_failures", "count");
    ]
  @ micro "core.micro_pm_msg_roundtrip"
  @ [
      ("controllers.subflow_requests", "count");
      ("controllers.reconnects", "count");
      ("controllers.failovers", "count");
      ("workload.sim_s", "s");
      ("workload.fct_p50_s", "s");
      ("workload.fct_p99_s", "s");
      ("workload.conns_failed_share", "ratio");
      ("obs.trace_overhead_ratio", "ratio");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_mb", "MB");
    ]

let make name value =
  match List.assoc_opt name end_to_end with
  | Some unit -> { name; unit; value }
  | None -> (
      match List.assoc_opt name per_layer with
      | Some unit -> { name; unit; value }
      | None -> invalid_arg ("Metric.make: unknown metric " ^ name))

let div ~if_zero n d = if d = 0.0 then if_zero else n /. d

let median = function
  | [] -> invalid_arg "Metric.median: no samples"
  | xs -> Smapp_stats.Summary.median (Array.of_list xs)

type outcome = { correct : bool; attempted : int; failed : int; metrics : t list }

let to_json o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
             o.metrics) );
    ]

let render metrics =
  let width = List.fold_left (fun w m -> max w (String.length m.name)) 0 metrics in
  String.concat ""
    (List.map (fun m -> Printf.sprintf "%-*s  %.6g %s\n" width m.name m.value m.unit) metrics)
