module Json = Smapp_stats.Json

type span = {
  id : int;
  parent : int;  (** 0 at top level *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type t = {
  mutable closed : span list;
  mutable open_ids : int list;  (** innermost first *)
  mutable next_id : int;
}

let create () = { closed = []; open_ids = []; next_id = 1 }
let fresh t = let id = t.next_id in t.next_id <- id + 1; id
let parent t = match t.open_ids with p :: _ -> p | [] -> 0

let record t name ~start_ns ~end_ns =
  t.closed <- { id = fresh t; parent = parent t; name; start_ns; end_ns } :: t.closed

let span t name f =
  let id = fresh t and parent = parent t in
  let start_ns = Clock.now_ns () in
  t.open_ids <- id :: t.open_ids;
  Fun.protect
    ~finally:(fun () ->
      t.open_ids <- List.tl t.open_ids;
      t.closed <- { id; parent; name; start_ns; end_ns = Clock.now_ns () } :: t.closed)
    f

let in_start_order t =
  List.stable_sort (fun a b -> Int64.compare a.start_ns b.start_ns) (List.rev t.closed)

let to_json t =
  let spans = in_start_order t in
  let origin = match spans with s :: _ -> s.start_ns | [] -> 0L in
  let us a b = Int64.to_float (Int64.sub b a) /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "bench");
        ("ph", Json.String "X");
        ("ts", Json.Float (us origin s.start_ns));
        ("dur", Json.Float (us s.start_ns s.end_ns));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
      ]
  in
  Json.Obj [ ("traceEvents", Json.List (List.map event spans)) ]

let write t path =
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  Json.to_file path (to_json t)
