(* Benchmark harness: regenerates every table of the paper's evaluation
   (Tables 5, 6 and 7), prints paper-vs-measured comparisons, runs the
   ablation studies called out in DESIGN.md, and times the core kernels
   with Bechamel (one Test.make per table plus the hot primitives).

   Usage:
     dune exec bench/main.exe                       # everything, quick scale
     dune exec bench/main.exe -- --circuits s27,s298
     dune exec bench/main.exe -- --tables 5,6      # subset of tables
     dune exec bench/main.exe -- --scale full      # faithful circuit sizes
     dune exec bench/main.exe -- --no-ablation --no-kernels
     dune exec bench/main.exe -- --jobs 4          # parallel circuits
     dune exec bench/main.exe -- --multicore-gate --min-omission-speedup 1.5
                                                   # CI speedup gate only *)

let default_circuits =
  [ "s27"; "s208"; "s298"; "s344"; "s382"; "s386"; "s400"; "s420"; "s444";
    "s510"; "s526"; "s641"; "s820"; "s953"; "s1196"; "s1423"; "s1488";
    "s5378"; "s35932"; "b01"; "b02"; "b03"; "b04"; "b06"; "b09"; "b10"; "b11" ]

type options = {
  mutable circuits : string list;
  mutable scale : Circuits.Profiles.scale;
  mutable tables : int list;
  mutable ablation : bool;
  mutable kernels : bool;
  mutable jobs : int;
  mutable json : string;
  mutable json3 : string;
  mutable json4 : string;
  mutable json5 : string;
  mutable json6 : string;
  mutable multicore_gate : bool;
  mutable min_omission_speedup : float;
  mutable fleet_gate : bool;
  mutable min_fleet_speedup : float;
}

let parse_args () =
  let o =
    {
      circuits = default_circuits;
      scale = Circuits.Profiles.Quick;
      tables = [ 5; 6; 7 ];
      ablation = true;
      kernels = true;
      jobs = max 1 (min 8 (Domain.recommended_domain_count () - 1));
      json = "BENCH_2.json";
      json3 = "BENCH_3.json";
      json4 = "BENCH_4.json";
      json5 = "BENCH_5.json";
      json6 = "BENCH_6.json";
      multicore_gate = false;
      min_omission_speedup = 0.0;
      fleet_gate = false;
      min_fleet_speedup = 0.0;
    }
  in
  let rec go = function
    | [] -> ()
    | "--circuits" :: v :: rest ->
      o.circuits <- String.split_on_char ',' v;
      go rest
    | "--scale" :: "full" :: rest ->
      o.scale <- Circuits.Profiles.Full;
      go rest
    | "--scale" :: "quick" :: rest ->
      o.scale <- Circuits.Profiles.Quick;
      go rest
    | "--tables" :: v :: rest ->
      o.tables <- List.map int_of_string (String.split_on_char ',' v);
      go rest
    | "--no-ablation" :: rest ->
      o.ablation <- false;
      go rest
    | "--no-kernels" :: rest ->
      o.kernels <- false;
      go rest
    | "--jobs" :: v :: rest ->
      o.jobs <- max 1 (int_of_string v);
      go rest
    | "--json" :: v :: rest ->
      o.json <- v;
      go rest
    | "--json3" :: v :: rest ->
      o.json3 <- v;
      go rest
    | "--json4" :: v :: rest ->
      o.json4 <- v;
      go rest
    | "--json5" :: v :: rest ->
      o.json5 <- v;
      go rest
    | "--multicore-gate" :: rest ->
      o.multicore_gate <- true;
      go rest
    | "--min-omission-speedup" :: v :: rest ->
      o.min_omission_speedup <- float_of_string v;
      go rest
    | "--json6" :: v :: rest ->
      o.json6 <- v;
      go rest
    | "--fleet-gate" :: rest ->
      o.fleet_gate <- true;
      go rest
    | "--min-fleet-speedup" :: v :: rest ->
      o.min_fleet_speedup <- float_of_string v;
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* --------------------------------------------------------- comparisons *)

let ratio a b = if b = 0 then nan else float_of_int a /. float_of_int b

let compare5 (rows : Core.Pipeline.table5_row list) =
  print_endline "--- Table 5: paper vs measured (fault coverage) ---";
  print_endline
    "circ        paper:faults  fcov  funct | ours:faults  fcov  funct";
  List.iter
    (fun (r : Core.Pipeline.table5_row) ->
      match Paper_data.find5 r.Core.Pipeline.name with
      | None ->
        Printf.printf "%-10s %12s %6s %5s | %11d %6.2f %5d\n" r.Core.Pipeline.name
          "-" "-" "-" r.Core.Pipeline.faults r.Core.Pipeline.fcov
          r.Core.Pipeline.funct
      | Some p ->
        Printf.printf "%-10s %12d %6.2f %5d | %11d %6.2f %5d\n"
          r.Core.Pipeline.name p.Paper_data.faults p.Paper_data.fcov
          p.Paper_data.funct r.Core.Pipeline.faults r.Core.Pipeline.fcov
          r.Core.Pipeline.funct)
    rows;
  print_newline ()

let compare6 (rows : Core.Pipeline.table6_row list) =
  print_endline
    "--- Table 6: paper vs measured (compaction vs complete-scan baseline) ---";
  print_endline
    "circ        paper: omit/test  omit<cyc26 | ours: omit/test  omit<cyc26";
  List.iter
    (fun (r : Core.Pipeline.table6_row) ->
      let ours_ratio =
        ratio r.Core.Pipeline.omit_len.Core.Pipeline.total
          r.Core.Pipeline.test_len.Core.Pipeline.total
      in
      let ours_win =
        r.Core.Pipeline.omit_len.Core.Pipeline.total < r.Core.Pipeline.baseline_cycles
      in
      match Paper_data.find6 r.Core.Pipeline.name with
      | None ->
        Printf.printf "%-10s %17s %11s | %15.2f %11b\n" r.Core.Pipeline.name "-"
          "-" ours_ratio ours_win
      | Some p ->
        let paper_ratio = ratio p.Paper_data.omit_total p.Paper_data.test_total in
        let paper_win =
          match p.Paper_data.cyc26 with
          | Some c -> Printf.sprintf "%b" (p.Paper_data.omit_total < c)
          | None -> "NA"
        in
        Printf.printf "%-10s %17.2f %11s | %15.2f %11b\n" r.Core.Pipeline.name
          paper_ratio paper_win ours_ratio ours_win)
    rows;
  print_newline ()

let compare7 (rows : Core.Pipeline.table7_row list) =
  print_endline "--- Table 7: paper vs measured (translated test sets) ---";
  print_endline "circ        paper: omit/cyc26 | ours: omit/cyc26";
  List.iter
    (fun (r : Core.Pipeline.table7_row) ->
      let ours =
        ratio r.Core.Pipeline.omit_len.Core.Pipeline.total
          r.Core.Pipeline.baseline_cycles
      in
      match Paper_data.find7 r.Core.Pipeline.name with
      | None -> Printf.printf "%-10s %17s | %15.2f\n" r.Core.Pipeline.name "-" ours
      | Some p ->
        Printf.printf "%-10s %17.2f | %15.2f\n" r.Core.Pipeline.name
          (ratio p.Paper_data.omit_total p.Paper_data.cyc26)
          ours)
    rows;
  print_newline ()

(* ------------------------------------------------------------ ablation *)

let ablation_circuits = [ "s27"; "s298"; "b01" ]

let compact_with cfg model seq targets ~restor ~omit =
  let seq, targets =
    if restor then begin
      let r = Compaction.Restoration.run model seq targets in
      let t =
        Compaction.Target.compute model r
          ~fault_ids:targets.Compaction.Target.fault_ids
      in
      r, t
    end
    else seq, targets
  in
  if omit then
    let s, _, _ =
      Compaction.Omission.run model seq targets cfg.Core.Config.omission
    in
    s
  else seq

let ablation_compaction_order () =
  print_endline "--- Ablation: compaction procedure choice ---";
  print_endline "circ        none  omit-only  restor-only  restor+omit";
  List.iter
    (fun name ->
      let c = Circuits.Catalog.circuit name in
      let cfg = Core.Config.for_circuit c in
      let scan = Scanins.Scan.insert c in
      let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let flow = Core.Flow.generate cfg sk model in
      let seq = flow.Core.Flow.sequence and targets = flow.Core.Flow.targets in
      let l ~restor ~omit =
        Array.length (compact_with cfg model seq targets ~restor ~omit)
      in
      Printf.printf "%-10s %5d %10d %12d %12d\n" name (Array.length seq)
        (l ~restor:false ~omit:true)
        (l ~restor:true ~omit:false)
        (l ~restor:true ~omit:true))
    ablation_circuits;
  print_newline ()

let ablation_scan_knowledge () =
  print_endline
    "--- Ablation: scan functional knowledge (drain / justification) ---";
  print_endline "circ        full-flow   no-drain   no-justify   neither";
  List.iter
    (fun name ->
      let c = Circuits.Catalog.circuit name in
      let scan = Scanins.Scan.insert c in
      let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let cov ~drain ~justify =
        let cfg =
          { (Core.Config.for_circuit c) with
            Core.Config.use_drain = drain;
            use_justify = justify;
            random_phase = None (* isolate the deterministic engine *) }
        in
        Core.Flow.coverage (Core.Flow.generate cfg sk model)
      in
      Printf.printf "%-10s %9.2f %10.2f %12.2f %9.2f\n" name
        (cov ~drain:true ~justify:true)
        (cov ~drain:false ~justify:true)
        (cov ~drain:true ~justify:false)
        (cov ~drain:false ~justify:false))
    ablation_circuits;
  print_newline ()

let ablation_chains () =
  print_endline "--- Ablation: number of scan chains ---";
  print_endline "circ        chains  N_SV  compacted  baseline-cycles";
  List.iter
    (fun name ->
      List.iter
        (fun chains ->
          let c = Circuits.Catalog.circuit name in
          if chains <= Netlist.Circuit.dff_count c then begin
            let cfg = { (Core.Config.for_circuit c) with Core.Config.chains } in
            let r = Core.Pipeline.run ~config:cfg name in
            Printf.printf "%-10s %6d %5d %10d %16d\n" name chains
              (Scanins.Scan.nsv (Scanins.Scan.insert ~chains c))
              r.Core.Pipeline.row6.Core.Pipeline.omit_len.Core.Pipeline.total
              r.Core.Pipeline.row6.Core.Pipeline.baseline_cycles
          end)
        [ 1; 2; 4 ])
    [ "s298"; "b01" ];
  print_newline ()

let ablation_random_phase () =
  print_endline "--- Ablation: randomized opening phase ---";
  print_endline "circ        with-random: len cov | without: len cov";
  List.iter
    (fun name ->
      let c = Circuits.Catalog.circuit name in
      let scan = Scanins.Scan.insert c in
      let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let run random_phase =
        let cfg = { (Core.Config.for_circuit c) with Core.Config.random_phase } in
        let f = Core.Flow.generate cfg sk model in
        Array.length f.Core.Flow.sequence, Core.Flow.coverage f
      in
      let lw, cw = run (Some Atpg.Random_phase.default_config) in
      let lo, co = run None in
      Printf.printf "%-10s %16d %6.2f | %12d %6.2f\n" name lw cw lo co)
    ablation_circuits;
  print_newline ()

let ablation_atpg_depth () =
  print_endline "--- Ablation: ATPG frame-depth budget (random phase off) ---";
  print_endline "circ        max-depth  coverage  sequence";
  List.iter
    (fun name ->
      let c = Circuits.Catalog.circuit name in
      let scan = Scanins.Scan.insert c in
      let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      List.iter
        (fun d ->
          let depths = List.filter (fun x -> x <= d) [ 1; 2; 3; 5; 8 ] in
          let cfg =
            { (Core.Config.for_circuit c) with
              Core.Config.random_phase = None;
              atpg = { Atpg.Seq_atpg.depths; backtrack_limit = 120 } }
          in
          let f = Core.Flow.generate cfg sk model in
          Printf.printf "%-10s %9d %9.2f %9d\n" name d (Core.Flow.coverage f)
            (Array.length f.Core.Flow.sequence))
        [ 1; 2; 5; 8 ])
    [ "s298" ];
  print_newline ()

(* ------------------------------------------- engine comparison (tentpole) *)

(* Dense (full-evaluation) vs event-driven Faultsim.advance on the two
   largest quick-scale profiles.  Also the acceptance check that both
   engines agree on every detection time. *)

type engine_row = {
  eb_circuit : string;
  eb_frames : int;
  eb_faults : int;
  eb_detected : int;
  eb_dense_s : float;
  eb_event_s : float;
  eb_speedup : float;
  eb_par_jobs : int;
  eb_event_par_s : float;
}

let compare_circuits = [ "s5378"; "s35932" ]

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Obs.Clock.now_ns () in
    f ();
    best := min !best (Obs.Clock.to_s (Obs.Clock.elapsed_ns t0))
  done;
  !best

let faultsim_compare ~scale =
  print_endline "--- Faultsim.advance: dense vs event-driven engine ---";
  print_endline
    "circ        faults  frames   dense(s)  event(s)  speedup  par(s) jobs";
  let rows =
    List.map
      (fun name ->
        let c = Circuits.Catalog.circuit ~scale name in
        let scan = Scanins.Scan.insert c in
        let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
        let rng = Prng.Rng.create 42L in
        let width = Netlist.Circuit.input_count scan.Scanins.Scan.circuit in
        let frames = 96 in
        let seq = Logicsim.Vectors.random_seq rng ~width ~length:frames in
        let ids = Array.init (Faultmodel.Model.fault_count model) Fun.id in
        let run engine jobs =
          Logicsim.Faultsim.detection_times ~engine ~jobs model ~fault_ids:ids
            seq
        in
        let dense_times = ref [||] and event_times = ref [||] in
        let dense_s =
          best_of 3 (fun () -> dense_times := run Logicsim.Faultsim.Dense 1)
        in
        let event_s =
          best_of 3 (fun () -> event_times := run Logicsim.Faultsim.Event 1)
        in
        let par_jobs = max 2 (min 8 (Domain.recommended_domain_count () - 1)) in
        let par_times = ref [||] in
        let event_par_s =
          best_of 3 (fun () ->
              par_times := run Logicsim.Faultsim.Event par_jobs)
        in
        if !dense_times <> !event_times || !dense_times <> !par_times then
          failwith
            (Printf.sprintf
               "engine disagreement on %s: event/parallel detection times \
                differ from dense"
               name);
        let detected =
          Array.fold_left (fun a t -> if t >= 0 then a + 1 else a) 0 !dense_times
        in
        Printf.printf "%-10s %7d %7d %9.3f %9.3f %8.2fx %7.3f %4d\n%!" name
          (Array.length ids) frames dense_s event_s (dense_s /. event_s)
          event_par_s par_jobs;
        {
          eb_circuit = name;
          eb_frames = frames;
          eb_faults = Array.length ids;
          eb_detected = detected;
          eb_dense_s = dense_s;
          eb_event_s = event_s;
          eb_speedup = dense_s /. event_s;
          eb_par_jobs = par_jobs;
          eb_event_par_s = event_par_s;
        })
      compare_circuits
  in
  print_newline ();
  rows

(* -------------------- speculative compaction comparison (BENCH_3.json) *)

(* Sequential (compact_jobs=1) vs speculative (compact_jobs=4) static
   compaction on the two largest quick-scale profiles.  Also the acceptance
   check that both kernels agree: byte-identical sequences and identical
   omission stats at any jobs (DESIGN.md §10).  On a single-core host the
   speculative figures include the full dispatch overhead without any
   parallel payoff — the recorded numbers are honest, not projected. *)

type compaction_row = {
  cb_circuit : string;
  cb_frames : int;
  cb_faults : int;
  cb_omitted_len : int;
  cb_spec_jobs : int;
  cb_omit_seq_s : float;
  cb_omit_spec_s : float;
  cb_rest_seq_s : float;
  cb_rest_spec_s : float;
}

let compaction_compare ~scale =
  print_endline
    "--- Static compaction: sequential vs speculative (DESIGN.md \xc2\xa710) ---";
  print_endline
    "circ        faults  frames  omit1(s)  omitK(s)  speedup  rest1(s)  restK(s)  jobs";
  let spec_jobs = 4 in
  let seq_key s =
    String.concat "\n" (Array.to_list (Array.map Logicsim.Vectors.to_string s))
  in
  let rows =
    List.map
      (fun name ->
        let c = Circuits.Catalog.circuit ~scale name in
        let scan = Scanins.Scan.insert c in
        let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
        let rng = Prng.Rng.create 42L in
        let width = Netlist.Circuit.input_count scan.Scanins.Scan.circuit in
        let frames = 120 in
        let seq = Logicsim.Vectors.random_seq rng ~width ~length:frames in
        let ids = Array.init (Faultmodel.Model.fault_count model) Fun.id in
        let targets = Compaction.Target.compute model seq ~fault_ids:ids in
        let omit jobs =
          let cfg = { Compaction.Omission.default_config with jobs } in
          let s, _, st = Compaction.Omission.run model seq targets cfg in
          s, st
        in
        let o1 = ref None and ok = ref None in
        let omit_seq_s = best_of 2 (fun () -> o1 := Some (omit 1)) in
        let omit_spec_s = best_of 2 (fun () -> ok := Some (omit spec_jobs)) in
        let s1, st1 = Option.get !o1 and sk, stk = Option.get !ok in
        if seq_key s1 <> seq_key sk || st1 <> stk then
          failwith
            (Printf.sprintf
               "speculative omission disagreement on %s: compact_jobs=%d \
                diverges from the sequential kernel"
               name spec_jobs);
        let rest jobs = Compaction.Restoration.run ~jobs model seq targets in
        let r1 = ref [||] and rk = ref [||] in
        let rest_seq_s = best_of 2 (fun () -> r1 := rest 1) in
        let rest_spec_s = best_of 2 (fun () -> rk := rest spec_jobs) in
        if seq_key !r1 <> seq_key !rk then
          failwith
            (Printf.sprintf "speculative restoration disagreement on %s" name);
        Printf.printf "%-10s %7d %7d %9.3f %9.3f %8.2fx %9.3f %9.3f %5d\n%!"
          name (Array.length ids) frames omit_seq_s omit_spec_s
          (omit_seq_s /. omit_spec_s)
          rest_seq_s rest_spec_s spec_jobs;
        {
          cb_circuit = name;
          cb_frames = frames;
          cb_faults = Array.length ids;
          cb_omitted_len = Array.length s1;
          cb_spec_jobs = spec_jobs;
          cb_omit_seq_s = omit_seq_s;
          cb_omit_spec_s = omit_spec_s;
          cb_rest_seq_s = rest_seq_s;
          cb_rest_spec_s = rest_spec_s;
        })
      compare_circuits
  in
  print_newline ();
  rows

(* ---------------------------------------------------- server round-trip *)

(* Cold vs warm-cache latency of one `generate` request through the
   daemon, and pipelined request throughput at 1 and 2 worker domains.
   All numbers are end-to-end (socket, framing, parsing, compute) against
   an in-process daemon on a Unix socket; honest single-core latencies,
   not a load-balancer fantasy. *)

type server_bench = {
  sb_circuit : string;
  sb_cold_ms : float;
  sb_warm_ms : float;
  sb_rps_jobs1 : float;
  sb_hi_jobs : int;
  sb_rps_hi : float;
}

let with_bench_daemon ~jobs f =
  let sock = Filename.temp_file "scanatpg_bench" ".sock" in
  let addr = Server.Daemon.Unix_sock sock in
  let cfg =
    {
      (Server.Daemon.default_config addr) with
      Server.Daemon.jobs;
      queue_depth = 64;
      install_signals = false;
      verbose = false;
    }
  in
  let d = Domain.spawn (fun () -> Server.Daemon.run cfg) in
  let rec wait_up n =
    if n > 250 then failwith "bench daemon did not come up"
    else
      match Server.Client.connect addr with
      | c -> Server.Client.close c
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.02;
        wait_up (n + 1)
  in
  wait_up 0;
  let r = f addr in
  (let c = Server.Client.connect addr in
   ignore (Server.Client.call c {|{"op":"shutdown"}|});
   Server.Client.close c);
  ignore (Domain.join d);
  (try Sys.remove sock with Sys_error _ -> ());
  r

let server_gen_req ~scale name =
  Printf.sprintf
    {|{"op":"generate","circuit":"%s","seed":77,"scale":"%s","sequence":false}|}
    name
    (match scale with Circuits.Profiles.Quick -> "quick" | _ -> "full")

let time_call c req =
  let t = Obs.Clock.now_ns () in
  ignore (Server.Client.call c req);
  Obs.Clock.to_s (Obs.Clock.elapsed_ns t)

(* N identical warm requests written back-to-back on one connection, then
   N responses read back: the daemon pipeline is the only variable. *)
let pipelined_rps addr req n =
  let c = Server.Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      ignore (Server.Client.call c req);
      let fd = Server.Client.fd c in
      let t = Obs.Clock.now_ns () in
      for _ = 1 to n do
        Server.Protocol.write_frame fd req
      done;
      for _ = 1 to n do
        ignore (Server.Protocol.read_frame fd)
      done;
      float_of_int n /. Obs.Clock.to_s (Obs.Clock.elapsed_ns t))

let server_roundtrip ?(hi_jobs = 2) ~scale () =
  print_endline "--- server round-trip (cold vs warm cache, req/s) ---";
  let circuits = [ "s27"; "s298" ] in
  let rows =
    List.map
      (fun name ->
        let req = server_gen_req ~scale name in
        (* Scale the sample counts to the cold latency: a circuit whose
           generate takes seconds would otherwise spend minutes here for
           no extra statistical power. *)
        let cold_ms, warm_ms, slow =
          with_bench_daemon ~jobs:1 (fun addr ->
              let c = Server.Client.connect addr in
              Fun.protect
                ~finally:(fun () -> Server.Client.close c)
                (fun () ->
                  let cold = time_call c req in
                  let slow = cold > 0.1 in
                  let reps = if slow then 3 else 10 in
                  let acc = ref 0.0 in
                  for _ = 1 to reps do
                    acc := !acc +. time_call c req
                  done;
                  cold *. 1e3, !acc /. float_of_int reps *. 1e3, slow))
        in
        let rps jobs =
          with_bench_daemon ~jobs (fun addr ->
              pipelined_rps addr req (if slow then 4 else 32))
        in
        let rps1 = rps 1 in
        let rps_hi = rps hi_jobs in
        Printf.printf
          "  %-8s cold %8.2f ms   warm %8.2f ms (%.1fx)   %7.1f req/s @1  \
           %7.1f req/s @%d\n\
           %!"
          name cold_ms warm_ms
          (cold_ms /. warm_ms)
          rps1 rps_hi hi_jobs;
        {
          sb_circuit = name;
          sb_cold_ms = cold_ms;
          sb_warm_ms = warm_ms;
          sb_rps_jobs1 = rps1;
          sb_hi_jobs = hi_jobs;
          sb_rps_hi = rps_hi;
        })
      circuits
  in
  print_newline ();
  rows

(* ------------------------------------------------------------ fleet gate *)

let fleet_shard_main socket =
  Server.Daemon.run
    {
      (Server.Daemon.default_config (Server.Daemon.Unix_sock socket)) with
      Server.Daemon.queue_depth = 256;
      install_signals = false;
      verbose = false;
    }

let with_bench_router ~shards ~result_cache_capacity f =
  let sock = Filename.temp_file "scanatpg_fleet" ".sock" in
  let addr = Server.Daemon.Unix_sock sock in
  let cfg =
    {
      (Fleet.Router.default_config addr ~shards
         ~launcher:(Fleet.Shard.Inproc fleet_shard_main))
      with
      Fleet.Router.result_cache_capacity;
      install_signals = false;
      verbose = false;
    }
  in
  let d = Domain.spawn (fun () -> Fleet.Router.run cfg) in
  let rec wait_up n =
    if n > 250 then failwith "bench router did not come up"
    else
      match Server.Client.connect addr with
      | c -> Server.Client.close c
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.02;
        wait_up (n + 1)
  in
  wait_up 0;
  let r = f addr in
  (let c = Server.Client.connect addr in
   ignore (Server.Client.call c {|{"op":"shutdown"}|});
   Server.Client.close c);
  let code = Domain.join d in
  if code <> 0 then failwith "bench router exited non-zero";
  (try Sys.remove sock with Sys_error _ -> ());
  r

(* Shard-balanced cold workload.  Every request carries the same s208
   netlist as explicit .bench text, distinguished only by a trailing
   comment line: the compute cost is identical for every variant while
   the content hash — and therefore the shard — differs.  Variants are
   picked greedily until every one of [shards] shards owns [per_shard]
   of them, so the 4-shard run is not at the mercy of catalog-name hash
   luck.  Distinct seeds per variant defeat the result cache, keeping
   the throughput measurement genuinely cold. *)
let fleet_workload ~shards ~per_shard ~seeds =
  let base =
    Netlist.Bench_format.to_string
      (Circuits.Catalog.circuit ~scale:Circuits.Profiles.Quick "s208")
  in
  let counts = Array.make shards 0 in
  let picked = ref [] in
  let npicked = ref 0 in
  let k = ref 0 in
  while !npicked < shards * per_shard do
    let text = Printf.sprintf "%s# shard-balance variant %d\n" base !k in
    let key =
      Server.Cache.key_of (Server.Protocol.Bench text)
        ~scale:Circuits.Profiles.Quick ~chains:1
    in
    let h = Server.Cache.fnv1a64 key in
    let s =
      Int64.to_int
        (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))
    in
    if counts.(s) < per_shard then begin
      counts.(s) <- counts.(s) + 1;
      incr npicked;
      picked := text :: !picked
    end;
    incr k
  done;
  let id = ref 0 in
  List.concat_map
    (fun text ->
      List.map
        (fun seed ->
          incr id;
          Obs.Json.to_string
            (Obs.Json.Obj
               [ "id", Obs.Json.Int !id;
                 "op", Obs.Json.Str "generate";
                 "bench", Obs.Json.Str text;
                 "seed", Obs.Json.Int seed;
                 "sequence", Obs.Json.Bool false ]))
        seeds)
    (List.rev !picked)

(* One pipelined pass: write the whole stream, collect responses by id
   on a reader domain (the ids are pre-stamped 1..n, so two passes of
   the same stream are directly comparable for byte identity). *)
let fleet_pass addr reqs =
  let arr = Array.of_list reqs in
  let n = Array.length arr in
  let c = Server.Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      let fd = Server.Client.fd c in
      let responses = Array.make n "" in
      let t = Obs.Clock.now_ns () in
      let reader =
        Domain.spawn (fun () ->
            let rec go got =
              if got = n then ()
              else
                match Server.Protocol.read_frame fd with
                | Some p ->
                  (match Fleet.Result_cache.split_id p with
                  | Some (id, _) when id >= 1 && id <= n ->
                    responses.(id - 1) <- p
                  | _ -> ());
                  go (got + 1)
                | None -> ()
            in
            go 0)
      in
      Array.iter (fun p -> Server.Protocol.write_frame fd p) arr;
      Domain.join reader;
      let wall = Obs.Clock.to_s (Obs.Clock.elapsed_ns t) in
      responses, wall)

let fleet_all_ok responses =
  Array.for_all
    (fun p ->
      match Option.bind (Obs.Json.member "status" (Obs.Json.parse p))
              Obs.Json.get_str with
      | Some "ok" -> true
      | _ -> false
      | exception Obs.Json.Parse_error _ -> false)
    responses

type fleet_row = {
  fb_shards : int;
  fb_cold_wall_s : float;
  fb_cold_rps : float;
  fb_warm_wall_s : float;
  fb_warm_rps : float;
  fb_hit_rate : float;
  fb_byte_identical : bool;
  fb_all_ok : bool;
}

let fleet_topology ~shards reqs =
  let n = List.length reqs in
  with_bench_router ~shards ~result_cache_capacity:(2 * n) (fun addr ->
      let cold, cold_wall = fleet_pass addr reqs in
      (* two warm passes: a hit-rate sweep, not a single lucky lookup *)
      let warm1, warm_wall = fleet_pass addr reqs in
      let warm2, _ = fleet_pass addr reqs in
      let stats =
        let c = Server.Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Server.Client.close c)
          (fun () -> Server.Client.call c {|{"id":1,"op":"stats"}|})
      in
      let counter name =
        match
          Option.bind
            (Option.bind
               (Obs.Json.member "counters" (Obs.Json.parse stats))
               (Obs.Json.member name))
            Obs.Json.get_int
        with
        | Some v -> v
        | None -> 0
      in
      let hits = counter "server.result_hit" in
      let misses = counter "server.result_miss" in
      let hit_rate =
        (* of the two warm passes: the cold pass misses by design *)
        float_of_int hits /. float_of_int (max 1 (2 * n))
      in
      ignore misses;
      {
        fb_shards = shards;
        fb_cold_wall_s = cold_wall;
        fb_cold_rps = float_of_int n /. cold_wall;
        fb_warm_wall_s = warm_wall;
        fb_warm_rps = float_of_int n /. warm_wall;
        fb_hit_rate = hit_rate;
        fb_byte_identical = cold = warm1 && warm1 = warm2;
        fb_all_ok =
          fleet_all_ok cold && fleet_all_ok warm1 && fleet_all_ok warm2;
      })

(* ----------------------------------------------------- bechamel kernels *)

let kernels () =
  let open Bechamel in
  (* note: Bechamel.Toolkit is deliberately not opened — it contains a
     [Compaction] measure module that would shadow our library. *)
  print_endline "--- Bechamel kernel timings ---";
  (* Shared fixtures, built once. *)
  let c = Circuits.Iscas.s27 () in
  let scan = Scanins.Scan.insert c in
  let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
  let sk = Atpg.Scan_knowledge.create scan in
  let cfg = Core.Config.for_circuit c in
  let rng = Prng.Rng.create 7L in
  let width = Netlist.Circuit.input_count scan.Scanins.Scan.circuit in
  let seq = Logicsim.Vectors.random_seq rng ~width ~length:128 in
  let ids = Array.init (Faultmodel.Model.fault_count model) Fun.id in
  let flow = Core.Flow.generate cfg sk model in
  let base = Baseline.Gen26.generate scan model cfg.Core.Config.atpg in
  let tests =
    Baseline.Compact26.run scan model ~fault_ids:base.Baseline.Gen26.detected
      base.Baseline.Gen26.tests
  in
  let test_table5 =
    Test.make ~name:"table5: unified generation (s27)"
      (Staged.stage (fun () -> ignore (Core.Flow.generate cfg sk model)))
  in
  let test_table6 =
    Test.make ~name:"table6: restoration+omission (s27)"
      (Staged.stage (fun () ->
           let r =
             Compaction.Restoration.run model flow.Core.Flow.sequence
               flow.Core.Flow.targets
           in
           let t =
             Compaction.Target.compute model r
               ~fault_ids:flow.Core.Flow.targets.Compaction.Target.fault_ids
           in
           ignore (Compaction.Omission.run model r t cfg.Core.Config.omission)))
  in
  let test_table7 =
    Test.make ~name:"table7: translate+compact (s27)"
      (Staged.stage (fun () ->
           let rng = Prng.Rng.create 13L in
           let t7 = Translation.Translate.run scan ~tests ~rng in
           let tg =
             Compaction.Target.compute model t7
               ~fault_ids:base.Baseline.Gen26.detected
           in
           ignore (Compaction.Restoration.run model t7 tg)))
  in
  let test_goodsim =
    Test.make ~name:"goodsim: 128 frames (s27_scan)"
      (Staged.stage
         (let sim = Logicsim.Goodsim.create model.Faultmodel.Model.circuit in
          fun () -> ignore (Logicsim.Goodsim.run sim seq)))
  in
  let test_faultsim =
    Test.make ~name:"faultsim: 58 faults x 128 frames (s27_scan)"
      (Staged.stage (fun () ->
           ignore (Logicsim.Faultsim.detection_times model ~fault_ids:ids seq)))
  in
  let test_obs_null =
    (* Acceptance check for the no-op sink: a span + two counter bumps on
       the disabled tracer must stay in the nanosecond range so leaving
       instrumentation compiled into the hot loops is free. *)
    Test.make ~name:"obs: null-sink span + 2 counters"
      (Staged.stage
         (let m = Obs.Metrics.create () in
          let cs = Obs.Metrics.counters m in
          fun () ->
            Obs.Trace.with_span Obs.Trace.null "k" (fun () ->
                Obs.Counters.add cs "a" 1;
                Obs.Counters.add cs "b" 2)))
  in
  let test_podem =
    Test.make ~name:"podem: depth 3, one fault (s27_scan)"
      (Staged.stage (fun () ->
           ignore
             (Atpg.Podem.run model ~fault:0 ~depth:3
                ~start:Atpg.Podem.Free_state ~backtrack_limit:100 ())))
  in
  let grouped =
    Test.make_grouped ~name:"scanatpg"
      [ test_table5; test_table6; test_table7; test_goodsim; test_faultsim;
        test_podem; test_obs_null ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg_b =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~stabilize:false ()
    in
    let raw = Benchmark.all cfg_b instances grouped in
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = benchmark () in
  let collected = ref [] in
  List.iter
    (fun tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols_result -> rows := (name, ols_result) :: !rows)
        tbl;
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            Printf.printf "%-48s %12.3f ms/run\n" name (est /. 1e6);
            collected := (name, est) :: !collected
          | Some [] | None -> Printf.printf "%-48s (no estimate)\n" name)
        (List.sort compare !rows))
    results;
  print_newline ();
  List.rev !collected

(* --------------------------------------------------------- JSON output *)

(* Machine-readable benchmark record (schema: EXPERIMENTS.md §"BENCH_*.json
   schema").  Hand-rolled writer — the repo deliberately has no JSON
   dependency. *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let metrics_json (m : Obs.Metrics.t) =
  let phases =
    String.concat ", "
      (List.map
         (fun (name, s) -> Printf.sprintf "\"%s\": %.6f" (json_escape name) s)
         (Obs.Metrics.phases m))
  in
  let counters =
    String.concat ", "
      (List.map
         (fun (name, v) -> Printf.sprintf "\"%s\": %d" (json_escape name) v)
         (Obs.Counters.to_alist (Obs.Metrics.counters m)))
  in
  let histograms =
    String.concat ", "
      (List.map
         (fun (name, h) ->
           Printf.sprintf
             "\"%s\": {\"count\": %d, \"sum\": %d, \"p50\": %d, \"p90\": %d, \
              \"p99\": %d}"
             (json_escape name) (Obs.Hist.count h) (Obs.Hist.sum h)
             (Obs.Hist.percentile h 0.50)
             (Obs.Hist.percentile h 0.90)
             (Obs.Hist.percentile h 0.99))
         (Obs.Metrics.hists m))
  in
  Printf.sprintf "\"phases\": {%s}, \"counters\": {%s}, \"histograms\": {%s}"
    phases counters histograms

let write_bench_json path ~scale ~jobs ~total_wall_s ~pipelines ~engines
    ~kernel_rows =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let seq f xs = String.concat ",\n" (List.map f xs) in
  add "{\n";
  add "  \"schema\": \"scanatpg-bench/2\",\n";
  add "  \"scale\": \"%s\",\n" (json_escape scale);
  add "  \"jobs\": %d,\n" jobs;
  add "  \"total_wall_s\": %.3f,\n" total_wall_s;
  add "  \"pipelines\": [\n%s\n  ],\n"
    (seq
       (fun ((r : Core.Pipeline.result), wall) ->
         Printf.sprintf
           "    {\"circuit\": \"%s\", \"wall_s\": %.3f, \"targeted\": %d, \
            \"detected\": %d, \"coverage\": %.2f, \"test_len\": %d, \
            \"omit_len\": %d, \"baseline_cycles\": %d, %s}"
           (json_escape r.Core.Pipeline.circuit)
           wall r.Core.Pipeline.row5.Core.Pipeline.faults
           r.Core.Pipeline.row5.Core.Pipeline.detected
           r.Core.Pipeline.row5.Core.Pipeline.fcov
           r.Core.Pipeline.row6.Core.Pipeline.test_len.Core.Pipeline.total
           r.Core.Pipeline.row6.Core.Pipeline.omit_len.Core.Pipeline.total
           r.Core.Pipeline.row6.Core.Pipeline.baseline_cycles
           (metrics_json r.Core.Pipeline.metrics))
       pipelines);
  add "  \"faultsim\": [\n%s\n  ],\n"
    (seq
       (fun e ->
         Printf.sprintf
           "    {\"circuit\": \"%s\", \"frames\": %d, \"faults\": %d, \
            \"detected\": %d, \"dense_s\": %.6f, \"event_s\": %.6f, \
            \"event_speedup\": %.3f, \"parallel_jobs\": %d, \
            \"event_parallel_s\": %.6f}"
           (json_escape e.eb_circuit) e.eb_frames e.eb_faults e.eb_detected
           e.eb_dense_s e.eb_event_s e.eb_speedup e.eb_par_jobs
           e.eb_event_par_s)
       engines);
  add "  \"kernels\": [\n%s\n  ]\n"
    (seq
       (fun (name, ns) ->
         Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %.1f}"
           (json_escape name) ns)
       kernel_rows);
  add "}\n";
  Obs.Fileio.write_string path (Buffer.contents b);
  Printf.printf "wrote %s\n%!" path

let write_bench3_json path ~scale ~rows =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"scanatpg-bench/3\",\n";
  add "  \"scale\": \"%s\",\n" (json_escape scale);
  add "  \"compaction\": [\n%s\n  ]\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    {\"circuit\": \"%s\", \"frames\": %d, \"faults\": %d, \
               \"omitted_len\": %d, \"speculative_jobs\": %d, \
               \"omission_sequential_s\": %.6f, \
               \"omission_speculative_s\": %.6f, \
               \"omission_speedup\": %.3f, \
               \"restoration_sequential_s\": %.6f, \
               \"restoration_speculative_s\": %.6f}"
              (json_escape r.cb_circuit) r.cb_frames r.cb_faults
              r.cb_omitted_len r.cb_spec_jobs r.cb_omit_seq_s r.cb_omit_spec_s
              (r.cb_omit_seq_s /. r.cb_omit_spec_s)
              r.cb_rest_seq_s r.cb_rest_spec_s)
          rows));
  add "}\n";
  Obs.Fileio.write_string path (Buffer.contents b);
  Printf.printf "wrote %s\n%!" path

let write_bench4_json path ~scale ~rows =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"scanatpg-bench/4\",\n";
  add "  \"scale\": \"%s\",\n" (json_escape scale);
  add "  \"server\": [\n%s\n  ]\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    {\"circuit\": \"%s\", \"cold_ms\": %.3f, \"warm_ms\": \
               %.3f, \"warm_speedup\": %.3f, \"rps_jobs1\": %.1f, \
               \"rps_jobs2\": %.1f}"
              (json_escape r.sb_circuit) r.sb_cold_ms r.sb_warm_ms
              (r.sb_cold_ms /. r.sb_warm_ms)
              r.sb_rps_jobs1 r.sb_rps_hi)
          rows));
  add "}\n";
  Obs.Fileio.write_string path (Buffer.contents b);
  Printf.printf "wrote %s\n%!" path

(* BENCH_5: the multicore speedup gate (schema scanatpg-bench/5).  Written
   by `--multicore-gate`, consumed by the CI bench job: [omission_speedup]
   is sequential-vs-speculative wall time at [speculative_jobs] on the
   runner's real cores, and [best_omission_speedup] is what the
   [--min-omission-speedup] gate is judged on.  [cores] records
   [Domain.recommended_domain_count] so a baseline from a differently
   sized runner is recognisable. *)
let write_bench5_json path ~scale ~cores ~gate ~compaction ~server =
  let best =
    List.fold_left
      (fun a r -> Float.max a (r.cb_omit_seq_s /. r.cb_omit_spec_s))
      0.0 compaction
  in
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"scanatpg-bench/5\",\n";
  add "  \"scale\": \"%s\",\n" (json_escape scale);
  add "  \"cores\": %d,\n" cores;
  add "  \"gate_min_omission_speedup\": %.2f,\n" gate;
  add "  \"best_omission_speedup\": %.3f,\n" best;
  add "  \"compaction\": [\n%s\n  ],\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    {\"circuit\": \"%s\", \"frames\": %d, \"faults\": %d, \
               \"omitted_len\": %d, \"speculative_jobs\": %d, \
               \"omission_sequential_s\": %.6f, \
               \"omission_speculative_s\": %.6f, \
               \"omission_speedup\": %.3f, \
               \"restoration_sequential_s\": %.6f, \
               \"restoration_speculative_s\": %.6f, \
               \"restoration_speedup\": %.3f}"
              (json_escape r.cb_circuit) r.cb_frames r.cb_faults
              r.cb_omitted_len r.cb_spec_jobs r.cb_omit_seq_s r.cb_omit_spec_s
              (r.cb_omit_seq_s /. r.cb_omit_spec_s)
              r.cb_rest_seq_s r.cb_rest_spec_s
              (r.cb_rest_seq_s /. r.cb_rest_spec_s))
          compaction));
  add "  \"server\": [\n%s\n  ]\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    {\"circuit\": \"%s\", \"cold_ms\": %.3f, \"warm_ms\": \
               %.3f, \"warm_speedup\": %.3f, \"rps_jobs1\": %.1f, \
               \"hi_jobs\": %d, \"rps_hi\": %.1f, \"rps_speedup\": %.3f, \
               \"pool_size\": %d}"
              (json_escape r.sb_circuit) r.sb_cold_ms r.sb_warm_ms
              (r.sb_cold_ms /. r.sb_warm_ms)
              r.sb_rps_jobs1 r.sb_hi_jobs r.sb_rps_hi
              (r.sb_rps_hi /. r.sb_rps_jobs1)
              Par.size)
          server));
  add "}\n";
  Obs.Fileio.write_string path (Buffer.contents b);
  Printf.printf "wrote %s\n%!" path;
  best

(* BENCH_6: the fleet gate (schema scanatpg-bench/6).  Written by
   `--fleet-gate`, consumed by the CI bench job: [fleet_speedup] is
   cold-stream throughput at 4 shards over 1 shard on the runner's real
   cores, [warm_hit_rate] is the result-cache hit rate over the two
   warm passes, and [byte_identical] asserts cached == computed.  The
   hit-rate and byte-identity gates are machine-independent; the
   speedup gate only means something on a multi-core runner. *)
let write_bench6_json path ~scale ~cores ~gate ~requests ~workload ~rows =
  let find shards =
    List.find_opt (fun r -> r.fb_shards = shards) rows
  in
  let speedup =
    match find 1, find 4 with
    | Some r1, Some r4 -> r4.fb_cold_rps /. r1.fb_cold_rps
    | _ -> 0.0
  in
  let hit_rate =
    List.fold_left (fun a r -> Float.min a r.fb_hit_rate) 1.0 rows
  in
  let ident = List.for_all (fun r -> r.fb_byte_identical) rows in
  let all_ok = List.for_all (fun r -> r.fb_all_ok) rows in
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"scanatpg-bench/6\",\n";
  add "  \"scale\": \"%s\",\n" (json_escape scale);
  add "  \"cores\": %d,\n" cores;
  add "  \"gate_min_fleet_speedup\": %.2f,\n" gate;
  add "  \"requests\": %d,\n" requests;
  add "  \"workload\": \"%s\",\n" (json_escape workload);
  add "  \"fleet_speedup\": %.3f,\n" speedup;
  add "  \"warm_hit_rate\": %.4f,\n" hit_rate;
  add "  \"byte_identical\": %b,\n" ident;
  add "  \"all_ok\": %b,\n" all_ok;
  add "  \"fleet\": [\n%s\n  ]\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    {\"shards\": %d, \"cold_wall_s\": %.6f, \"cold_rps\": \
               %.3f, \"warm_wall_s\": %.6f, \"warm_rps\": %.3f, \
               \"warm_hit_rate\": %.4f, \"byte_identical\": %b, \
               \"all_ok\": %b}"
              r.fb_shards r.fb_cold_wall_s r.fb_cold_rps r.fb_warm_wall_s
              r.fb_warm_rps r.fb_hit_rate r.fb_byte_identical r.fb_all_ok)
          rows));
  add "}\n";
  Obs.Fileio.write_string path (Buffer.contents b);
  Printf.printf "wrote %s\n%!" path;
  speedup, hit_rate, ident, all_ok

(* The CI fleet-gate entry point: a shard-balanced cold stream through a
   1-shard and a 4-shard router (throughput ratio is the speedup), then
   two warm passes of the same stream per topology (result-cache sweep).
   Hit-rate and byte-identity failures are hard errors anywhere; the
   speedup floor is opt-in via --min-fleet-speedup because it needs real
   cores. *)
let run_fleet_gate o =
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "scanatpg bench --fleet-gate: %d recommended domains\n\n%!" cores;
  let per_shard = 2 and seeds = [ 1; 2; 3 ] in
  let reqs = fleet_workload ~shards:4 ~per_shard ~seeds in
  let n = List.length reqs in
  let workload =
    Printf.sprintf
      "s208 x %d content-hash-balanced bench variants x %d seeds"
      (4 * per_shard) (List.length seeds)
  in
  Printf.printf "  workload: %s (%d requests)\n%!" workload n;
  let rows =
    List.map
      (fun shards ->
        let r = fleet_topology ~shards reqs in
        Printf.printf
          "  %d shard(s): cold %6.2fs (%6.2f req/s)   warm %6.3fs \
           (%7.1f req/s)   hit-rate %.2f   identical %b\n%!"
          shards r.fb_cold_wall_s r.fb_cold_rps r.fb_warm_wall_s
          r.fb_warm_rps r.fb_hit_rate r.fb_byte_identical;
        r)
      [ 1; 4 ]
  in
  let speedup, hit_rate, ident, all_ok =
    write_bench6_json o.json6 ~scale:"quick" ~cores
      ~gate:o.min_fleet_speedup ~requests:n ~workload ~rows
  in
  if not all_ok then begin
    Printf.eprintf "FAIL: a fleet request did not come back ok\n%!";
    exit 5
  end;
  if not ident then begin
    Printf.eprintf
      "FAIL: a memoized response differed from the computed one\n%!";
    exit 5
  end;
  if hit_rate < 0.9 then begin
    Printf.eprintf
      "FAIL: warm result-cache hit rate %.2f is under the 0.90 gate\n%!"
      hit_rate;
    exit 5
  end;
  if o.min_fleet_speedup > 0.0 && speedup < o.min_fleet_speedup then begin
    Printf.eprintf
      "FAIL: 4-shard fleet speedup %.2fx is under the %.2fx gate (%d \
       cores)\n%!"
      speedup o.min_fleet_speedup cores;
    exit 5
  end;
  Printf.printf
    "fleet gate: speedup %.2fx (gate %.2fx), warm hit-rate %.2f, cached \
     == computed\n%!"
    speedup o.min_fleet_speedup hit_rate

(* ----------------------------------------------------------------- main *)

(* The CI bench-gate entry point: only the two multicore kernels run —
   speculative compaction at jobs 1 vs 4 and daemon round-trips at
   server-jobs 1 vs 4, trials on the process-wide {!Par} pool — and the run
   fails (exit 5) when the best omission speedup lands under the
   [--min-omission-speedup] floor.  Tables, ablations and Bechamel are
   skipped so the job stays minutes, not tens of minutes. *)
let run_multicore_gate o =
  let cores = Domain.recommended_domain_count () in
  let scale_name =
    match o.scale with Circuits.Profiles.Quick -> "quick" | _ -> "full"
  in
  Printf.printf
    "scanatpg bench --multicore-gate: scale=%s, %d recommended domains\n\n%!"
    scale_name cores;
  let compaction = compaction_compare ~scale:o.scale in
  let server = server_roundtrip ~scale:o.scale ~hi_jobs:4 () in
  let best =
    write_bench5_json o.json5 ~scale:scale_name ~cores
      ~gate:o.min_omission_speedup ~compaction ~server
  in
  if o.min_omission_speedup > 0.0 && best < o.min_omission_speedup then begin
    Printf.eprintf
      "FAIL: best omission speedup %.2fx is under the %.2fx gate (%d cores)\n%!"
      best o.min_omission_speedup cores;
    exit 5
  end;
  Printf.printf "multicore gate: best omission speedup %.2fx (gate %.2fx)\n%!"
    best o.min_omission_speedup

let () =
  let o = parse_args () in
  if o.multicore_gate || o.fleet_gate then begin
    if o.multicore_gate then run_multicore_gate o;
    if o.fleet_gate then run_fleet_gate o;
    exit 0
  end;
  Printf.printf
    "scanatpg bench: %d circuits, scale=%s, jobs=%d\n\
     (synthetic substitutes for all benchmarks except s27 -- see DESIGN.md)\n\n%!"
    (List.length o.circuits)
    (match o.scale with Circuits.Profiles.Quick -> "quick" | _ -> "full")
    o.jobs;
  let t0 = Obs.Clock.now_ns () in
  let timed_results =
    let names = Array.of_list o.circuits in
    Array.to_list
      (Par.map ~jobs:o.jobs (Array.length names) (fun i ->
           let metrics = Obs.Metrics.create () in
           let t = Obs.Clock.now_ns () in
           let r = Core.Pipeline.run ~scale:o.scale ~metrics names.(i) in
           let wall = Obs.Clock.to_s (Obs.Clock.elapsed_ns t) in
           Printf.printf "  %-8s done in %.1fs\n%!" names.(i) wall;
           r, wall))
  in
  let results = List.map fst timed_results in
  Printf.printf "all pipelines done in %.1fs\n\n%!"
    (Obs.Clock.to_s (Obs.Clock.elapsed_ns t0));
  if List.mem 5 o.tables then begin
    print_endline "=== Table 5 (measured) ===";
    print_string (Core.Report.table5 (List.map (fun r -> r.Core.Pipeline.row5) results));
    print_newline ();
    compare5 (List.map (fun r -> r.Core.Pipeline.row5) results)
  end;
  if List.mem 6 o.tables then begin
    print_endline "=== Table 6 (measured) ===";
    print_string (Core.Report.table6 (List.map (fun r -> r.Core.Pipeline.row6) results));
    print_newline ();
    compare6 (List.map (fun r -> r.Core.Pipeline.row6) results)
  end;
  if List.mem 7 o.tables then begin
    print_endline "=== Table 7 (measured) ===";
    let rows7 = List.filter_map (fun r -> r.Core.Pipeline.row7) results in
    print_string (Core.Report.table7 rows7);
    print_newline ();
    compare7 rows7
  end;
  if o.ablation then begin
    ablation_compaction_order ();
    ablation_scan_knowledge ();
    ablation_random_phase ();
    ablation_atpg_depth ();
    ablation_chains ()
  end;
  let engines = if o.kernels then faultsim_compare ~scale:o.scale else [] in
  let compaction_rows =
    if o.kernels then compaction_compare ~scale:o.scale else []
  in
  let server_rows =
    if o.kernels then server_roundtrip ~scale:o.scale () else []
  in
  let kernel_rows = if o.kernels then kernels () else [] in
  let scale_name =
    match o.scale with Circuits.Profiles.Quick -> "quick" | _ -> "full"
  in
  write_bench_json o.json ~scale:scale_name ~jobs:o.jobs
    ~total_wall_s:(Obs.Clock.to_s (Obs.Clock.elapsed_ns t0))
    ~pipelines:timed_results ~engines ~kernel_rows;
  if compaction_rows <> [] then
    write_bench3_json o.json3 ~scale:scale_name ~rows:compaction_rows;
  if server_rows <> [] then
    write_bench4_json o.json4 ~scale:scale_name ~rows:server_rows
