open Smapp_sim
open Smapp_netsim
open Smapp_workload

type t = {
  name : string;
  config : Workload.config;
  twin_shards : int;
  outage : bool;
  golden : string;
}

let base = Workload.default_config

let bulk =
  {
    name = "bulk";
    config =
      {
        base with
        conns = 500;
        arrival_rate = 500.0;
        flow_dist = Workload.Fixed 200_000;
        controller = `Fullmesh;
        clients = 8;
        servers = 4;
        paths = 2;
        shards = 1;
      };
    twin_shards = 4;
    outage = false;
    golden = "2f597c7389cdfbafa47ea636d6ae8739";
  }

let churn =
  {
    name = "churn";
    config =
      {
        base with
        conns = 10_000;
        arrival_rate = 2_500.0;
        flow_dist = Workload.Fixed 5_000;
        controller = `Fullmesh;
        clients = 16;
        servers = 8;
        paths = 2;
        shards = 1;
      };
    twin_shards = 4;
    outage = false;
    golden = "7cebb28f93ae69f7c11219cd752ded04";
  }

let failover =
  {
    name = "failover";
    config =
      {
        base with
        conns = 8_000;
        arrival_rate = 2_000.0;
        controller = `Backup;
        clients = 8;
        servers = 4;
        paths = 2;
        shards = 4;
      };
    twin_shards = 1;
    outage = true;
    golden = "4bef74b079b03b432e89e3b7604ff7a0";
  }

let all = [ bulk; churn; failover ]
let find name = List.find_opt (fun t -> t.name = name) all
let golden_seed = 42
let config t ~seed ~shards = { t.config with Workload.seed; shards }

let outage_start = Time.add Time.zero (Time.span_ms 1_000)
let outage_end = Time.add Time.zero (Time.span_ms 2_500)

let perturb t (fabric : Topology.fabric) =
  if t.outage then begin
    let clients = fabric.Topology.mm_clients in
    let half = Array.length clients / 2 in
    Array.iteri
      (fun i host ->
        if i < half then
          match Host.find_nic host fabric.Topology.mm_client_addrs.(i).(0) with
          | Some nic ->
              let engine = Host.engine host in
              ignore (Engine.at engine outage_start (fun () -> Host.set_nic_up nic false));
              ignore (Engine.at engine outage_end (fun () -> Host.set_nic_up nic true))
          | None -> invalid_arg "Workloads.perturb: client has no path-0 NIC")
      clients
  end
