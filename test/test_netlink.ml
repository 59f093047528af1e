(* Tests for the netlink wire format, the kernel<->user channel, and the
   MPTCP path-manager message family. *)

open Smapp_sim
open Smapp_netsim
module Wire = Smapp_netlink.Wire
module Channel = Smapp_netlink.Channel
module Pm_msg = Smapp_core.Pm_msg

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* --- wire format ------------------------------------------------------------- *)

let msg ~ty ~seq attrs = { Wire.header = { Wire.msg_type = ty; flags = 0; seq; pid = 0 }; attrs }

let test_wire_roundtrip_simple () =
  let m =
    msg ~ty:7 ~seq:99
      [
        { Wire.attr_type = 1; value = Wire.U32 123456 };
        { Wire.attr_type = 2; value = Wire.U8 1 };
        { Wire.attr_type = 3; value = Wire.U64 0x1234_5678_9ABC_DEF0L };
        { Wire.attr_type = 4; value = Wire.Str "eth0" };
      ]
  in
  match Wire.decode (Wire.encode m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
      checki "type" 7 m'.Wire.header.Wire.msg_type;
      checki "seq" 99 m'.Wire.header.Wire.seq;
      checki "attrs" 4 (List.length m'.Wire.attrs);
      (match Wire.get_u32 m' 1 with Ok v -> checki "u32" 123456 v | Error e -> Alcotest.fail e);
      (match Wire.get_u64 m' 3 with
      | Ok v -> Alcotest.(check int64) "u64" 0x1234_5678_9ABC_DEF0L v
      | Error e -> Alcotest.fail e);
      (match Wire.get_str m' 4 with Ok v -> checks "str" "eth0" v | Error e -> Alcotest.fail e)

let test_wire_truncated () =
  let m = msg ~ty:1 ~seq:1 [ { Wire.attr_type = 1; value = Wire.U32 5 } ] in
  let bytes = Wire.encode m in
  let cut = String.sub bytes 0 (String.length bytes - 3) in
  checkb "truncated rejected" true (Result.is_error (Wire.decode cut))

let test_wire_batch () =
  let m1 = msg ~ty:1 ~seq:1 [] in
  let m2 = msg ~ty:2 ~seq:2 [ { Wire.attr_type = 9; value = Wire.Str "x" } ] in
  match Wire.decode_batch (Wire.encode_batch [ m1; m2 ]) with
  | Error e -> Alcotest.fail e
  | Ok msgs ->
      checki "two messages" 2 (List.length msgs);
      checki "second type" 2 (List.nth msgs 1).Wire.header.Wire.msg_type

let test_wire_missing_attr () =
  let m = msg ~ty:1 ~seq:1 [] in
  checkb "missing attr is error" true (Result.is_error (Wire.get_u32 m 42))

let wire_props =
  let attr_gen =
    QCheck.Gen.(
      map2
        (fun ty v -> { Wire.attr_type = ty; value = v })
        (int_range 0 65535)
        (oneof
           [
             map (fun v -> Wire.U8 (v land 0xff)) (int_range 0 255);
             map (fun v -> Wire.U32 (v land 0xFFFFFFFF)) (int_bound max_int);
             map (fun v -> Wire.U64 (Int64.of_int v)) (int_bound max_int);
             map (fun s -> Wire.Str s) (string_size (int_range 0 40));
           ]))
  in
  let msg_gen =
    QCheck.Gen.(
      map3
        (fun ty seq attrs -> msg ~ty ~seq attrs)
        (int_range 0 65535) (int_range 0 1000000) (list_size (int_range 0 8) attr_gen))
  in
  let arb = QCheck.make msg_gen in
  [
    QCheck.Test.make ~name:"wire roundtrip" ~count:300 arb (fun m ->
        match Wire.decode (Wire.encode m) with
        | Error _ -> false
        | Ok m' ->
            m'.Wire.header.Wire.msg_type = m.Wire.header.Wire.msg_type
            && m'.Wire.header.Wire.seq = m.Wire.header.Wire.seq
            && m'.Wire.attrs = m.Wire.attrs);
    QCheck.Test.make ~name:"wire batch roundtrip" ~count:100
      (QCheck.make QCheck.Gen.(list_size (int_range 0 5) msg_gen))
      (fun msgs ->
        match Wire.decode_batch (Wire.encode_batch msgs) with
        | Error _ -> false
        | Ok msgs' -> List.length msgs = List.length msgs');
  ]

(* --- channel ------------------------------------------------------------------ *)

let test_channel_latency () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:(Time.span_us 10) () in
  let arrived = ref None in
  Channel.on_user_receive ch (fun bytes ->
      arrived := Some (Time.to_ns (Engine.now e), bytes));
  Channel.kernel_send ch "hello";
  Engine.run e;
  match !arrived with
  | Some (t, bytes) ->
      checks "payload" "hello" bytes;
      (* 10us nominal with +-30% jitter *)
      checkb "latency in jitter band" true (t >= 7_000 && t <= 13_000)
  | None -> Alcotest.fail "nothing arrived"

let test_channel_stress_factor () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:(Time.span_us 10) () in
  Channel.set_stress_factor ch 3.0;
  let arrived = ref None in
  Channel.on_kernel_receive ch (fun _ -> arrived := Some (Time.to_ns (Engine.now e)));
  Channel.user_send ch "cmd";
  Engine.run e;
  match !arrived with
  | Some t -> checkb "stressed latency" true (t >= 21_000 && t <= 39_000)
  | None -> Alcotest.fail "nothing arrived"

let test_channel_counters () =
  let e = Engine.create () in
  let ch = Channel.create e () in
  Channel.kernel_send ch "a";
  Channel.kernel_send ch "b";
  Channel.user_send ch "c";
  checki "k2u" 2 (Channel.kernel_to_user_messages ch);
  checki "u2k" 1 (Channel.user_to_kernel_messages ch)

(* --- pm_msg codecs ---------------------------------------------------------------- *)

let sample_flow =
  Ip.flow ~src:(Ip.endpoint (Ip.v4 10 0 0 1) 43211) ~dst:(Ip.endpoint (Ip.v4 10 0 1 2) 80)

let roundtrip_event ev =
  match Pm_msg.event_of_msg (Pm_msg.event_to_msg ~seq:1 ev) with
  | Ok ev' -> ev' = ev
  | Error _ -> false

let test_event_roundtrips () =
  let events =
    [
      Pm_msg.Created { token = 0xABCD; flow = sample_flow; sub_id = 0 };
      Pm_msg.Estab { token = 0xABCD };
      Pm_msg.Closed { token = 1 };
      Pm_msg.Sub_estab { token = 2; sub_id = 3; flow = sample_flow; backup = true };
      Pm_msg.Sub_closed
        { token = 2; sub_id = 3; flow = sample_flow; error = Some Smapp_tcp.Tcp_error.Econnreset };
      Pm_msg.Sub_closed { token = 2; sub_id = 4; flow = sample_flow; error = None };
      Pm_msg.Timeout { token = 5; sub_id = 1; rto = Time.span_ms 1600; count = 3 };
      Pm_msg.Add_addr { token = 5; addr_id = 2; endpoint = Ip.endpoint (Ip.v4 10 9 9 9) 8080 };
      Pm_msg.Rem_addr { token = 5; addr_id = 2 };
      Pm_msg.New_local_addr { addr = Ip.v4 192 168 1 4; ifname = "wlan0" };
      Pm_msg.Del_local_addr { addr = Ip.v4 192 168 1 4; ifname = "wlan0" };
    ]
  in
  List.iteri
    (fun i ev -> checkb (Printf.sprintf "event %d roundtrips" i) true (roundtrip_event ev))
    events

let roundtrip_command cmd =
  match Pm_msg.command_of_msg (Pm_msg.command_to_msg ~seq:7 cmd) with
  | Ok cmd' -> cmd' = cmd
  | Error _ -> false

let test_command_roundtrips () =
  let commands =
    [
      Pm_msg.Subscribe { mask = Pm_msg.Mask.all };
      Pm_msg.Create_subflow
        {
          token = 0xFEED;
          src = Ip.v4 10 0 1 1;
          src_port = Some 5555;
          dst = Ip.endpoint (Ip.v4 10 0 1 2) 80;
          backup = true;
        };
      Pm_msg.Create_subflow
        {
          token = 0xFEED;
          src = Ip.v4 10 0 1 1;
          src_port = None;
          dst = Ip.endpoint (Ip.v4 10 0 1 2) 80;
          backup = false;
        };
      Pm_msg.Remove_subflow { token = 1; sub_id = 2 };
      Pm_msg.Set_backup { token = 1; sub_id = 2; backup = true };
      Pm_msg.Get_sub_info { token = 1; sub_id = 2 };
      Pm_msg.Get_conn_info { token = 1 };
    ]
  in
  List.iteri
    (fun i cmd ->
      checkb (Printf.sprintf "command %d roundtrips" i) true (roundtrip_command cmd))
    commands

let test_reply_roundtrips () =
  let sub_info =
    {
      Pm_msg.si_sub_id = 3;
      si_state = Smapp_tcp.Tcp_info.Established;
      si_rto = Time.span_ms 220;
      si_srtt = Some (Time.span_ms 23);
      si_cwnd = 28000;
      si_pacing_rate = 2_500_000.0;
      si_snd_una = 123456;
      si_snd_nxt = 140000;
      si_retransmits = 0;
      si_total_retrans = 7;
      si_backup = false;
    }
  in
  let conn_info =
    {
      Pm_msg.ci_token = 0xFACE;
      ci_bytes_sent = 1_000_000;
      ci_bytes_acked = 900_000;
      ci_bytes_received = 12;
      ci_subflow_count = 4;
      ci_send_buffer = 100_000;
    }
  in
  let replies =
    [ Pm_msg.Ack; Pm_msg.Error "no such connection"; Pm_msg.R_sub_info sub_info;
      Pm_msg.R_conn_info conn_info ]
  in
  List.iteri
    (fun i r ->
      let ok =
        match Pm_msg.reply_of_msg (Pm_msg.reply_to_msg ~seq:3 r) with
        | Ok r' -> r' = r
        | Error _ -> false
      in
      checkb (Printf.sprintf "reply %d roundtrips" i) true ok)
    replies

(* --- decoder totality ------------------------------------------------------------ *)

(* Every decoder on the kernel<->user and BENCH.json paths must answer
   Ok or Error on hostile bytes, never raise. Pure noise rarely gets past
   a header check, so half the inputs are real encodings (PM events,
   commands, replies, a batch, a JSON document) with bytes overwritten
   and the tail cut at a random point. *)
let decoder_totality =
  let corpus =
    [
      Wire.encode
        (Pm_msg.event_to_msg ~seq:1
           (Pm_msg.Sub_closed
              { token = 2; sub_id = 3; flow = sample_flow; error = Some Smapp_tcp.Tcp_error.Econnreset }));
      Wire.encode
        (Pm_msg.event_to_msg ~seq:2
           (Pm_msg.New_local_addr { addr = Ip.v4 192 168 1 4; ifname = "wlan0" }));
      Wire.encode
        (Pm_msg.command_to_msg ~key:9 ~seq:3
           (Pm_msg.Create_subflow
              {
                token = 0xFEED;
                src = Ip.v4 10 0 1 1;
                src_port = Some 5555;
                dst = Ip.endpoint (Ip.v4 10 0 1 2) 80;
                backup = true;
              }));
      Wire.encode
        (Pm_msg.reply_to_msg ~seq:4
           (Pm_msg.R_conn_info
              {
                Pm_msg.ci_token = 0xFACE;
                ci_bytes_sent = 1_000_000;
                ci_bytes_acked = 900_000;
                ci_bytes_received = 12;
                ci_subflow_count = 4;
                ci_send_buffer = 100_000;
              }));
      Wire.encode_batch
        [
          Pm_msg.event_to_msg ~seq:5 (Pm_msg.Estab { token = 0xABCD });
          Pm_msg.reply_to_msg ~seq:6 (Pm_msg.Error "no such connection");
        ];
      {|{"scale":"quick","sections":[{"name":"fig2a","wall_s":0.06,"metrics":{"failover_s":2.2e0,"x":-1,"ok":true,"n":null}}]}|};
    ]
  in
  let mutate base edits cut =
    let b = Bytes.of_string base in
    List.iter
      (fun (i, c) -> if Bytes.length b > 0 then Bytes.set b (i mod Bytes.length b) c)
      edits;
    Bytes.sub_string b 0 (min cut (Bytes.length b))
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size (int_range 0 64);
          map3 mutate (oneofl corpus)
            (list_size (int_range 0 6) (pair (int_bound 4096) char))
            (int_bound 256);
        ])
  in
  QCheck.Test.make ~name:"decoders are total on hostile bytes" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun bytes ->
      let total f = match f () with Ok _ | Error _ -> true in
      let pm msg =
        total (fun () -> Pm_msg.event_of_msg msg)
        && total (fun () -> Pm_msg.command_of_msg msg)
        && total (fun () -> Pm_msg.reply_of_msg msg)
      in
      (match Wire.decode bytes with Ok msg -> pm msg | Error _ -> true)
      && (match Wire.decode_batch bytes with Ok msgs -> List.for_all pm msgs | Error _ -> true)
      && total (fun () -> Smapp_stats.Json.of_string bytes))

let test_srtt_none_roundtrip () =
  let i =
    {
      Pm_msg.si_sub_id = 0;
      si_state = Smapp_tcp.Tcp_info.Syn_sent;
      si_rto = Time.span_s 1;
      si_srtt = None;
      si_cwnd = 14000;
      si_pacing_rate = 0.0;
      si_snd_una = 0;
      si_snd_nxt = 1;
      si_retransmits = 0;
      si_total_retrans = 0;
      si_backup = false;
    }
  in
  match Pm_msg.reply_of_msg (Pm_msg.reply_to_msg ~seq:1 (Pm_msg.R_sub_info i)) with
  | Ok (Pm_msg.R_sub_info i') -> checkb "srtt none preserved" true (i'.Pm_msg.si_srtt = None)
  | _ -> Alcotest.fail "roundtrip failed"

let test_errno_codes () =
  checki "etimedout" 110 (Pm_msg.errno_code Smapp_tcp.Tcp_error.Etimedout);
  checki "econnreset" 104 (Pm_msg.errno_code Smapp_tcp.Tcp_error.Econnreset);
  checkb "0 is clean close" true (Pm_msg.errno_of_code 0 = None);
  List.iter
    (fun e ->
      checkb "errno roundtrip" true (Pm_msg.errno_of_code (Pm_msg.errno_code e) = Some e))
    Smapp_tcp.Tcp_error.[ Etimedout; Econnreset; Econnrefused; Enetunreach; Ehostunreach ]

let test_mask_of_event () =
  checki "created" Pm_msg.Mask.created
    (Pm_msg.mask_of_event (Pm_msg.Created { token = 1; flow = sample_flow; sub_id = 0 }));
  checki "timeout" Pm_msg.Mask.timeout
    (Pm_msg.mask_of_event
       (Pm_msg.Timeout { token = 1; sub_id = 0; rto = Time.span_s 1; count = 1 }));
  checki "all covers everything" 1023 Pm_msg.Mask.all

let () =
  Alcotest.run "netlink"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip_simple;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          Alcotest.test_case "batch" `Quick test_wire_batch;
          Alcotest.test_case "missing attr" `Quick test_wire_missing_attr;
        ]
        @ List.map QCheck_alcotest.to_alcotest wire_props );
      ( "channel",
        [
          Alcotest.test_case "latency" `Quick test_channel_latency;
          Alcotest.test_case "stress factor" `Quick test_channel_stress_factor;
          Alcotest.test_case "counters" `Quick test_channel_counters;
        ] );
      ( "pm_msg",
        [
          Alcotest.test_case "events" `Quick test_event_roundtrips;
          Alcotest.test_case "commands" `Quick test_command_roundtrips;
          Alcotest.test_case "replies" `Quick test_reply_roundtrips;
          Alcotest.test_case "srtt none" `Quick test_srtt_none_roundtrip;
          Alcotest.test_case "errno codes" `Quick test_errno_codes;
          Alcotest.test_case "event masks" `Quick test_mask_of_event;
          QCheck_alcotest.to_alcotest decoder_totality;
        ] );
    ]
