(* Workload [fleet-mixed]: open loop at one fixed offered rate against the
   shipped [scanatpg router --shards 2 --server-jobs 1] (process shards).
   One sender (the main domain) and one reader domain share a single
   connection.  Arrivals are uniformly spaced; in every block of 25
   arrivals, 21 repeat a hot template (router result-cache hits), 3 are
   warm computes (catalog circuit, fresh per-arrival seed: result-cache
   miss, circuit-cache hit) and 1 is a cold compile (s208 .bench text with
   a unique comment: misses both caches).  The seed fixes which compute
   slot of every block is the cold compile, the template and circuit draws
   and the per-arrival seeds.  Latencies are exact samples, timed from the
   actual send (see README.md for why not from the schedule). *)

open Common
module Protocol = Server.Protocol
module Client = Server.Client
module Json = Obs.Json

(* Offered load, fixed once and never derived at run time: 42 requests/s
   gives 1058 hits in a 30 s run, while computes keep the shards' core
   about a third busy -- low enough that queueing does not amplify
   run-to-run CPU noise into the compute percentiles. *)
let rate = 42.

(* A run is flagged invalid when its sender's p99 lateness exceeds
   [max_late_ms] or the hypervisor stole more than [max_steal_pct] of the
   host's CPU time during the load. *)
let max_late_ms = 3.
let max_steal_pct = 0.5

(* The load counts as [slices] consecutive passes of equal arrival count
   (3 s each in a 30 s run); op_mean_ms is the median of their mean
   latencies, as the in-process workloads take the median pass. *)
let slices = 10

(* Latency limits behind within_slo_pct, per class. *)
let hit_slo_ms = 10.
let compute_slo_ms = 1000.

let hot_templates =
  [| {|"op":"generate","circuit":"s27","seed":7,"sequence":false|};
     {|"op":"table","circuit":"s27"|};
     {|"op":"generate","circuit":"b02","seed":3,"sequence":false|};
     {|"op":"generate","circuit":"s208","seed":5,"sequence":false|} |]

(* Warm-compute circuits, drawn in blocks of 80 with these multiplicities.
   Together with the cold compiles (a quarter of all computes) the b02
   generates form one dense ~40-70 ms cluster from ~22% to ~98% of the
   computes, so both the compute p50 and p90 fall inside it rather than on
   an edge between cost clusters, where they would jump from seed to
   seed.  s208 (~0.15 s with compaction) and b01 (0.15-0.55 s depending on
   the seed) stay rare: each one also slows the computes that overlap it
   on the shards' shared core. *)
let warm_circuits = [| "s27"; "b02"; "s208"; "b01" |]
let warm_weights = [| 24; 54; 1; 1 |]

let warm_slots =
  Array.concat
    (Array.to_list (Array.mapi (fun c w -> Array.make w c) warm_weights))

let frame ~id body = Printf.sprintf {|{"id":%d,%s}|} id body

let warm_body circuit seed =
  Printf.sprintf {|"op":"generate","circuit":"%s","seed":%d,"sequence":false|} circuit seed

let s208_text = lazy (Netlist.Bench_format.to_string (Circuits.Catalog.circuit "s208"))

(* A cold compile generates without compaction: its cost is the compile
   plus the flow (~60 ms), which keeps the compute load light. *)
let cold_body tag =
  Printf.sprintf {|"op":"generate","bench":%s,"compact":false,"sequence":false|}
    (Json.quote (Printf.sprintf "# perfbench %s\n%s" tag (Lazy.force s208_text)))

type cls = Hit of int | Warm | Cold

(* ---- the request schedule ---- *)

(* Computes sit at fixed, evenly spaced positions of every block of 25
   arrivals (one every ~150 ms), so they rarely queue behind each other
   and the compute percentiles reflect service time rather than the
   seed's clustering of arrivals; the seed picks which compute slot is
   the cold compile. *)
let compute_positions = [| 0; 6; 12; 18 |]

let schedule ~seed n =
  let cls = Array.make n Warm and body = Array.make n "" in
  let warm_k = ref 0 in
  for i = 0 to n - 1 do
    let pos = i mod 25 in
    let cold_at =
      compute_positions.(draw ~seed ~salt:"cold" (i / 25) (Array.length compute_positions))
    in
    if pos = cold_at then begin
      cls.(i) <- Cold;
      body.(i) <- cold_body (Printf.sprintf "seed %d arrival %d" seed i)
    end
    else if Array.mem pos compute_positions then begin
      let k = !warm_k in
      incr warm_k;
      let nw = Array.length warm_slots in
      let perm = shuffle ~seed ~salt:(Printf.sprintf "warm%d" (k / nw)) nw in
      let s =
        1000 + draw ~seed ~salt:"arrival-seed" i 1_000_000_000
      in
      cls.(i) <- Warm;
      body.(i) <- warm_body warm_circuits.(warm_slots.(perm.(k mod nw))) s
    end
    else begin
      let t = draw ~seed ~salt:"hot" i (Array.length hot_templates) in
      cls.(i) <- Hit t;
      body.(i) <- hot_templates.(t)
    end
  done;
  cls, body

(* ---- router process ---- *)

type router = { pid : int; sock : string }

(* Routers started and not yet stopped, stopped on every exit path. *)
let live = ref []

let proc_alive pid = Sys.file_exists (Printf.sprintf "/proc/%d" pid)

(* Child pids of [pid] (the router's shard processes). *)
let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some p -> (
           match read_file (Printf.sprintf "/proc/%d/stat" p) with
           | exception Sys_error _ -> None
           | st ->
             (* the fields after the parenthesised command name *)
             let rest = String.sub st (String.rindex st ')' + 2)
                 (String.length st - String.rindex st ')' - 2) in
             (match String.split_on_char ' ' rest with
              | _state :: ppid :: _ when int_of_string_opt ppid = Some pid -> Some p
              | _ -> None)))

let connect sock =
  let addr = Server.Daemon.Unix_sock sock in
  Client.connect addr

let rec wait_ready r deadline =
  match connect r.sock with
  | c -> c
  | exception (Unix.Unix_error _ | Failure _) ->
    (match Unix.waitpid [ Unix.WNOHANG ] r.pid with
     | 0, _ -> ()
     | _ -> failwith "router exited during start-up");
    if Unix.gettimeofday () > deadline then failwith "router socket never came up";
    Unix.sleepf 0.02;
    wait_ready r deadline

let start (o : options) k =
  let sock = Filename.concat o.workdir (Printf.sprintf "f%d-%d.sock" (Unix.getpid ()) k) in
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process o.scanatpg
      [| o.scanatpg; "router"; "--socket"; sock; "--shards"; "2"; "--server-jobs"; "1";
         "--quiet" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let r = { pid; sock } in
  live := r :: !live;
  r, wait_ready r (Unix.gettimeofday () +. 30.)

(* Clean drain through the shutdown op; SIGKILL router and shards if it
   does not finish in time.  Returns once every process has ended. *)
let stop r =
  live := List.filter (fun x -> x != r) !live;
  let shards = children r.pid in
  (try
     let c = connect r.sock in
     ignore (Client.call c {|{"id":1,"op":"shutdown"}|});
     Client.close c
   with _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] r.pid with
    | 0, _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.02; wait ()
    | 0, _ ->
      List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) (r.pid :: shards);
      ignore (Unix.waitpid [] r.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  List.iter
    (fun p ->
      let rec gone n = if proc_alive p && n > 0 then (Unix.sleepf 0.02; gone (n - 1)) in
      gone 500;
      if proc_alive p then (try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()))
    shards

(* CPU placement on a host with at least two cores: the load generator
   and the router share CPU 0 and both shard processes run on CPU 1, so
   the cache-hit path never waits for a core behind compute and the hit
   percentiles measure the router rather than the scheduler.  [taskset -a]
   moves every thread of a process. *)
let pinned = nproc >= 2

(* [taskset cpu pid] reports whether the placement took; a host without
   [taskset] or without a CPU 1 runs unpinned (noted in the metadata). *)
let taskset cpu pid =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
  match
    Unix.create_process "taskset"
      [| "taskset"; "-a"; "-p"; "-c"; cpu; string_of_int pid |]
      devnull devnull devnull
  with
  | exception Unix.Unix_error _ -> false
  | p -> Unix.waitpid [] p = (p, Unix.WEXITED 0)

let placed = ref false

let place r =
  placed :=
    pinned
    && List.for_all Fun.id
         (taskset "0" (Unix.getpid ()) :: taskset "0" r.pid
          :: List.map (taskset "1") (children r.pid));
  if pinned && not !placed then log "fleet-mixed: CPU placement failed, running unpinned"

let payload_suffix p =
  match Fleet.Result_cache.split_id p with
  | Some (_, suffix) -> suffix
  | None -> p

(* Setup: start the fleet and warm it -- every hot template once (its
   payload is what later hits must equal byte for byte), and one compute
   per warm circuit so its compiled circuit is resident. *)
let setup o k =
  let r, c = start o k in
  let hot =
    Array.mapi (fun i b -> payload_suffix (Client.call c (frame ~id:(i + 1) b))) hot_templates
  in
  Array.iteri
    (fun i name -> ignore (Client.call c (frame ~id:(100 + i) (warm_body name 1))))
    warm_circuits;
  place r;
  r, c, hot

let status p =
  match Json.parse p with
  | j -> Option.value (Option.bind (Json.member "status" j) Json.get_str) ~default:"?"
  | exception Json.Parse_error _ -> "unparsable"

(* The integer at [path] of a response, 0 when absent. *)
let int_at j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  |> Fun.flip Option.bind Json.get_int
  |> Option.value ~default:0

(* What the service returned for the hot templates, from their warm-up
   payloads: tester cycles of the compacted sequences, and detected over
   targeted faults.  A [generate] reports its compacted length; a [table]
   its Table 6 and Table 7 omitted lengths. *)
let served_quality hot =
  Array.fold_left
    (fun (cyc, det, flt) suffix ->
      let j = Json.parse (Fleet.Result_cache.splice_id ~id:1 suffix) in
      match Option.bind (Json.member "op" j) Json.get_str with
      | Some "table" ->
        ( cyc + int_at j [ "row6"; "omit_len"; "total" ]
          + int_at j [ "row7"; "omit_len"; "total" ],
          det + int_at j [ "row5"; "detected" ],
          flt + int_at j [ "row5"; "faults" ] )
      | _ ->
        ( cyc + int_at j [ "vectors" ],
          det + int_at j [ "detected" ],
          flt + int_at j [ "targeted" ] ))
    (0, 0, 0) hot

(* ---- the open loop ---- *)

(* The load generator's sender and reader threads ask for a higher
   scheduling priority (Linux nice values are per thread), so that CPU
   contention from the shards shows up in the system's latency rather than
   in the instrument's lateness.  Without the privilege it runs as is. *)
let prioritize () = try ignore (Unix.nice (-10)) with Unix.Unix_error _ -> ()

type load = {
  due : int array;  (** scheduled send time, ns *)
  sent : int array;  (** actual send time, ns *)
  recv : int array;  (** response time, ns; 0 when none arrived *)
  resp : string array;
}

let run_load c ~n ~bodies =
  let fd = Client.fd c in
  let l =
    { due = Array.make n 0; sent = Array.make n 0; recv = Array.make n 0;
      resp = Array.make n "" }
  in
  let got = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        prioritize ();
        try
          while Atomic.get got < n do
            match Protocol.read_frame fd with
            | None -> raise Exit
            | Some p ->
              let t = now_ns () in
              (match Fleet.Result_cache.split_id p with
               | Some (id, _) when id >= 1 && id <= n && l.recv.(id - 1) = 0 ->
                 l.recv.(id - 1) <- t;
                 l.resp.(id - 1) <- p;
                 Atomic.incr got
               | _ -> ())
          done
        with _ -> ())
  in
  prioritize ();
  let gap = 1e9 /. rate in
  let t0 = now_ns () + 50_000_000 in
  (try
     for i = 0 to n - 1 do
       let due = t0 + int_of_float (float_of_int i *. gap) in
       let wait = due - now_ns () in
       if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
       l.due.(i) <- due;
       l.sent.(i) <- now_ns ();
       Protocol.write_frame fd (frame ~id:(i + 1) bodies.(i))
     done
   with (Unix.Unix_error _ | Sys_error _) as e ->
     log "fleet-mixed: sender stopped: %s" (Printexc.to_string e));
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get got < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if Atomic.get got < n then (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
  Domain.join reader;
  l

(* ---- unloaded layer probes (traced mode) ---- *)

let median_call ?(reps = 200) ~name c body =
  median
    (Array.init reps (fun i ->
         span ~op:(i + 1) name (fun () ->
             let t0 = now_ns () in
             ignore (Client.call c (frame ~id:(i + 1) body));
             float_of_int (Obs.Clock.elapsed_ns t0))))

let shard_of body =
  let req = Protocol.request_of_string (frame ~id:1 body) in
  match req.op with
  | Generate { c; _ } | Table { c } | Compact { c; _ } ->
    let key = Server.Cache.key_of c.src ~scale:c.scale ~chains:c.chains in
    Int64.to_int (Int64.rem (Int64.logand (Server.Cache.fnv1a64 key) Int64.max_int) 2L)
  | _ -> 0

let shard_sock r i = Printf.sprintf "%s.shard%d" r.sock i

let call_ms c ~id body =
  let t0 = now_ns () in
  let p = Client.call c (frame ~id body) in
  if status p <> "ok" then failwith ("probe request failed: " ^ p);
  float_of_int (Obs.Clock.elapsed_ns t0) /. 1e6

let stats_json c =
  Json.parse (Client.call c {|{"id":1,"op":"stats"}|})

let counter j name =
  match Option.bind (Json.member "counters" j) (Json.member name) with
  | Some v -> Option.value (Json.get_int v) ~default:0
  | None -> 0

let probes r c ~hot_payload =
  let shard = Array.init 2 (fun i -> connect (shard_sock r i)) in
  let fleet_ping = median_call ~name:"fleet.ping" c {|"op":"ping"|} in
  let fleet_hit = median_call ~name:"fleet.hit" c hot_templates.(0) in
  (* trace.overhead_pct: the hit timed around a span versus the same call
     without one, in alternating pairs *)
  let traced, plain =
    let timed f =
      let t0 = now_ns () in
      f ();
      float_of_int (Obs.Clock.elapsed_ns t0)
    in
    let pairs =
      Array.init 200 (fun i ->
          let call () = ignore (Client.call c (frame ~id:(i + 1) hot_templates.(0))) in
          let t = timed (fun () -> span ~op:(i + 1) "fleet.hit.spanned" call) in
          t, timed call)
    in
    median (Array.map fst pairs), median (Array.map snd pairs)
  in
  let server_ping = median_call ~name:"server.ping" shard.(0) {|"op":"ping"|} in
  let compile =
    median
      (Array.init 5 (fun i ->
           let body = cold_body (Printf.sprintf "probe %d" i) in
           let s = shard.(shard_of body) in
           let cold = span ~op:(i + 1) "server.compile.cold" (fun () -> call_ms s ~id:1 body) in
           let warm = span ~op:(i + 1) "server.compile.warm" (fun () -> call_ms s ~id:2 body) in
           cold -. warm))
  in
  (* the router hop on the cheapest compute (s27 without compaction, ~2 ms),
     100 pairs alternating which side runs first; fresh seeds keep the
     routed call a result-cache miss *)
  let hop =
    median
      (Array.init 100 (fun i ->
           let body =
             Printf.sprintf {|"op":"generate","circuit":"s27","seed":%d,"compact":false,"sequence":false|}
               (500 + i)
           in
           let direct () =
             span ~op:(i + 1) "fleet.hop.direct" (fun () ->
                 call_ms shard.(shard_of body) ~id:1 body)
           in
           let routed () = span ~op:(i + 1) "fleet.hop.routed" (fun () -> call_ms c ~id:2 body) in
           if i mod 2 = 0 then
             let d = direct () in
             routed () -. d
           else
             let r = routed () in
             r -. direct ()))
  in
  let json_us =
    median
      (Array.init 5 (fun i ->
           span ~op:(i + 1) "obs.json" (fun () ->
               let t0 = now_ns () in
               for _ = 1 to 1000 do
                 ignore (Sys.opaque_identity (Json.to_string (Json.parse hot_payload)))
               done;
               float_of_int (Obs.Clock.elapsed_ns t0) /. 1e3 /. 1000.)))
  in
  Array.iter Client.close shard;
  100. *. (traced -. plain) /. plain,
  [ m "fleet.ping_us" "us" (fleet_ping /. 1e3);
    m "fleet.hit_us" "us" (fleet_hit /. 1e3);
    m "server.ping_us" "us" (server_ping /. 1e3);
    m "server.compile_ms" "ms" compile;
    m "fleet.hop_ms" "ms" hop;
    m "obs.json_us" "us" json_us ]

(* In-process [Service.execute] on the warm-compute templates, and the
   kernel probe over the sequences those computes return. *)
let service_probe () =
  let svc = Server.Service.create () in
  let exec ~id body =
    let req = Protocol.request_of_string (frame ~id body) in
    fst (Server.Service.execute svc ~budget:Obs.Budget.unlimited req)
  in
  let bodies = Array.map (fun name -> warm_body name 11) warm_circuits in
  Array.iteri (fun i b -> ignore (exec ~id:(i + 1) b)) bodies;
  let ms =
    Array.concat
      (List.init 3 (fun rep ->
           Array.mapi
             (fun i b ->
               span ~op:((10 * rep) + i + 1) "server.execute" (fun () ->
                   let t0 = now_ns () in
                   ignore (exec ~id:(i + 1) b);
                   float_of_int (Obs.Clock.elapsed_ns t0) /. 1e6))
             bodies))
  in
  let seqs =
    Array.to_list
      (Array.map
         (fun name ->
           let p =
             exec ~id:1
               (Printf.sprintf {|"op":"generate","circuit":"%s","seed":11|} name)
           in
           let vecs =
             match Option.bind (Json.member "sequence" (Json.parse p)) Json.get_arr with
             | Some l -> List.filter_map Json.get_str l
             | None -> failwith "generate returned no sequence"
           in
           let model =
             span "circuits.build" (fun () ->
                 let scan = Scanins.Scan.insert (Circuits.Catalog.circuit name) in
                 Faultmodel.Model.build scan.circuit)
           in
           model, Array.of_list (List.map Logicsim.Vectors.parse vecs))
         warm_circuits)
  in
  m "server.execute_ms" "ms" (median ms), Kernel.probe seqs

(* ---- workload ---- *)

(* One measured load: the open loop, then its checks and latencies
   (outside the timed region). *)
type outcome = {
  failed : int;
  hits : float array;  (** ms, ok hits *)
  comps : float array;  (** ms, ok computes *)
  within : int;
  slice_mean_ms : float;  (** median over [slices] of their mean ok latency *)
  decisions : int;  (** ATPG and omission counters the computes returned *)
  backtracks : int;
  trials : int;
  accepted : int;
  late_p99 : float;
  steal_pct : float;  (** CPU steal during the load *)
}

let disturbed x = x.late_p99 > max_late_ms || x.steal_pct > max_steal_pct

(* Mean of the ok latencies ([nan] marks a failed request) of slice [k]. *)
let slice_mean lat k =
  let n = Array.length lat in
  let lo = k * n / slices and hi = (k + 1) * n / slices in
  Array.sub lat lo (hi - lo) |> Array.to_list
  |> List.filter (fun x -> not (Float.is_nan x))
  |> mean

let measure_load o c ~hot n =
  let cls, bodies = schedule ~seed:o.seed n in
  let mark = cpu_times () in
  let l = run_load c ~n ~bodies in
  let steal_pct = steal_pct_since mark in
  let ok = Array.make n false in
  let hit_lat = ref [] and comp_lat = ref [] and within = ref 0 in
  let ok_lat = Array.make n nan in
  let decisions = ref 0 and backtracks = ref 0 and trials = ref 0 and accepted = ref 0 in
  for i = 0 to n - 1 do
    if l.recv.(i) > 0 && status l.resp.(i) = "ok" then begin
      let lat = float_of_int (l.recv.(i) - l.sent.(i)) /. 1e6 in
      ok_lat.(i) <- lat;
      match cls.(i) with
      | Hit t ->
        ok.(i) <- payload_suffix l.resp.(i) = hot.(t);
        if ok.(i) then begin
          hit_lat := lat :: !hit_lat;
          if lat <= hit_slo_ms then incr within
        end
      | Warm | Cold ->
        ok.(i) <- true;
        let j = Json.parse l.resp.(i) in
        decisions := !decisions + int_at j [ "counters"; "atpg.decisions" ];
        backtracks := !backtracks + int_at j [ "counters"; "atpg.backtracks" ];
        trials := !trials + int_at j [ "omission"; "trials" ];
        accepted := !accepted + int_at j [ "omission"; "accepted" ];
        comp_lat := lat :: !comp_lat;
        if lat <= compute_slo_ms then incr within
    end
  done;
  let late = Array.init n (fun i -> float_of_int (max 0 (l.sent.(i) - l.due.(i))) /. 1e6) in
  { failed = Array.fold_left (fun a b -> if b then a else a + 1) 0 ok;
    hits = Array.of_list !hit_lat;
    comps = Array.of_list !comp_lat;
    within = !within;
    slice_mean_ms = median (Array.init slices (slice_mean ok_lat));
    decisions = !decisions;
    backtracks = !backtracks;
    trials = !trials;
    accepted = !accepted;
    late_p99 = quantile late 0.99;
    steal_pct }

let measure (o : options) =
  let load_before = loadavg () in
  let n = int_of_float (Float.ceil (rate *. o.seconds)) in
  let setups = ref [] and fleet = ref None in
  for k = 1 to 5 do
    let t0 = now_ns () in
    let r, c, hot = setup o k in
    setups := secs_since t0 :: !setups;
    (match !fleet with
     | Some (r0, c0, _) -> Client.close c0; stop r0
     | None -> ());
    fleet := Some (r, c, hot)
  done;
  let r, c, hot = Option.get !fleet in
  Fun.protect ~finally:(fun () -> try Client.close c with _ -> ()) @@ fun () ->
  (* traced mode: the unloaded layer probes, before the load *)
  let probed =
    if o.traced then begin
      let tr = Obs.Trace.create () in
      tracer := tr;
      let t0 = now_ns () in
      let overhead_pct, ms =
        probes r c ~hot_payload:(Fleet.Result_cache.splice_id ~id:1 hot.(0))
      in
      let execute, kernel = service_probe () in
      let probe_s = secs_since t0 in
      tracer := Obs.Trace.null;
      Obs.Trace.write_chrome tr
        (Filename.concat o.workdir (Printf.sprintf "trace-fleet-mixed-seed%d.json" o.seed));
      let spans = Obs.Trace.spans tr in
      Some
        ( execute :: ms,
          kernel,
          fst (span_times spans "circuits.build"),
          overhead_pct,
          probe_s -. top_level_s spans )
    end
    else None
  in
  let res = measure_load o c ~hot n in
  let { failed; hits; comps; within; late_p99; _ } = res in
  let rss =
    List.fold_left (fun a p -> a +. peak_rss_mb (string_of_int p)) 0. (r.pid :: children r.pid)
  in
  let q a p = if Array.length a = 0 then 0. else quantile a p in
  let valid = not (disturbed res) in
  if not valid then
    log "fleet-mixed: load disturbed (late p99 %.2f ms, steal %.2f%%): run invalid"
      late_p99 res.steal_pct;
  (* the latency of each class of request, next to the result *)
  let extra =
    [ "rate_rps", Json.Float rate;
      "sent", Json.Int n;
      "hits", Json.Int (Array.length hits);
      "computes", Json.Int (Array.length comps);
      "hit_p50_ms", Json.Float (q hits 0.5);
      "hit_p99_ms", Json.Float (q hits 0.99);
      "compute_p50_ms", Json.Float (q comps 0.5);
      "compute_p90_ms", Json.Float (q comps 0.9);
      "within_slo_pct", Json.Float (100. *. ratio within n);
      "loadgen.late_p99_ms", Json.Float late_p99;
      "load_steal_pct", Json.Float res.steal_pct;
      "cpu_placement", Json.Bool !placed;
      "run_valid", Json.Bool valid ]
  in
  match probed with
  | None ->
    let op_ms = Array.append hits comps in
    let test_cycles, detected, faults = served_quality hot in
    emit o ~load_before ~extra ~correct:(failed = 0) ~attempted:n ~failed
      (e2e_metrics
         { setups = Array.of_list !setups;
           op_ms;
           op_mean_ms = res.slice_mean_ms;
           test_cycles;
           detected;
           faults;
           ok = n - failed;
           attempted = n;
           rss_mb = rss })
  | Some (probe_metrics, kernel, build_s, overhead_pct, uncovered_s) ->
    let rs = stats_json c in
    let rc k =
      match Option.bind (Json.member "result_cache" rs) (Json.member k) with
      | Some v -> Option.value (Json.get_int v) ~default:0
      | None -> 0
    in
    let shard_stats =
      List.init 2 (fun i ->
          let sc = connect (shard_sock r i) in
          let j = stats_json sc in
          Client.close sc;
          j)
    in
    let sum_c name = List.fold_left (fun a j -> a + counter j name) 0 shard_stats in
    let computes_of j = counter j "server.cache_hit" + counter j "server.cache_miss" in
    let shard_max = List.fold_left (fun a j -> max a (computes_of j)) 0 shard_stats in
    let own =
      probe_metrics
      @ [ m "server.circuit_hit_rate" "ratio"
            (ratio (sum_c "server.cache_hit") (sum_c "server.cache_hit" + sum_c "server.cache_miss"));
          m "server.rejected" "count" (float_of_int (sum_c "server.rejected"));
          m "fleet.result_hit_rate" "ratio" (ratio (rc "hits") (rc "hits" + rc "misses"));
          m "fleet.shard_max_share" "ratio"
            (ratio shard_max (sum_c "server.cache_hit" + sum_c "server.cache_miss")) ]
    in
    emit o ~load_before ~extra:(extra @ [ layers_meta own ]) ~correct:(failed = 0)
      ~attempted:n ~failed
      (layer_result
         { decisions = res.decisions;
           backtracks = res.backtracks;
           omit_trials = res.trials;
           omit_accepted = res.accepted;
           kernel;
           build_s;
           overhead_pct;
           uncovered_s })

let run (o : options) =
  Fun.protect ~finally:(fun () -> List.iter stop !live) (fun () -> measure o)
