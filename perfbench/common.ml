(* Shared plumbing of the benchmark: options, clocks, exact-sample
   statistics, span bookkeeping, process memory and the result line. *)

type options = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  scanatpg : string;  (** the shipped CLI binary, driven by fleet-mixed *)
  workdir : string;  (** sockets, span dumps and run records *)
  profile : string;  (** build profile the binaries were built in *)
}

(* The seed every pinned expectation (tables' expected rows) was recorded
   under; any other seed checks later passes against pass 1 instead. *)
let default_seed = 1

(* Cores available to the run, read before fleet-mixed pins itself to
   one of them. *)
let nproc = Domain.recommended_domain_count ()

let now_ns = Obs.Clock.now_ns
let secs_since t0 = Obs.Clock.to_s (Obs.Clock.elapsed_ns t0)

let time f =
  let t0 = now_ns () in
  let r = f () in
  r, secs_since t0

(* ---- exact-sample statistics ---- *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank quantile: the ceil (q n)-th smallest sample. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "quantile of no samples";
  let k = int_of_float (Float.ceil (q *. float_of_int n)) in
  s.(max 0 (min (n - 1) (k - 1)))

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "median of no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let sum a = Array.fold_left ( +. ) 0. a

(* Mean of a list of samples; 0 for none. *)
let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Deterministic draw for item [i] under [seed] (FNV-1a, as the load
   harness library draws its templates). *)
let draw ~seed ~salt i n =
  let h = Server.Cache.fnv1a64 (Printf.sprintf "%d:%s:%d" seed salt i) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int n))

(* A seed-determined permutation of [0 .. n-1]. *)
let shuffle ~seed ~salt n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = draw ~seed ~salt i (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Each in-process op starts from a compacted heap, as it would in a
   fresh process; otherwise its time depends on the garbage the op before
   it left, and so on the seed's op order.  Called outside the op's time. *)
let settle () = Gc.compact ()

(* Timed passes of [pass]: at least three, so that a median over passes
   outvotes one disturbed pass, and more while another one would still
   end within [o.seconds] (a traced run makes one, for the overhead
   comparison).  [after] checks each pass's result outside the timed
   region.  Returns the pass times in order. *)
let run_passes (o : options) pass ~after =
  let t0 = now_ns () in
  let rec go times =
    let k = List.length times in
    let fits () =
      secs_since t0 +. (sum (Array.of_list times) /. float_of_int k) <= o.seconds
    in
    if (o.traced && k = 1) || (k >= 3 && not (fits ())) then Array.of_list (List.rev times)
    else begin
      let r, dt = time pass in
      after r;
      go (dt :: times)
    end
  in
  go []

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The end-to-end figures of a run.  Every workload reports all of them,
   each with the op its workload defines: one circuit's pipeline, one
   sequence's compaction, one routed request. *)
type e2e = {
  setups : float array;  (** seconds of each setup of the run *)
  op_ms : float array;  (** latency of each ok op, ms *)
  op_mean_ms : float;  (** median over passes of their mean ok op latency, ms *)
  test_cycles : int;  (** tester cycles of the compacted sequences *)
  detected : int;
  faults : int;
  ok : int;
  attempted : int;
  rss_mb : float;
}

let e2e_metrics x =
  let q p = if Array.length x.op_ms = 0 then 0. else quantile x.op_ms p in
  [ m "setup_s" "s" (median x.setups);
    m "op_p50_ms" "ms" (if Array.length x.op_ms = 0 then 0. else median x.op_ms);
    m "op_p90_ms" "ms" (q 0.9);
    m "op_mean_ms" "ms" x.op_mean_ms;
    m "test_cycles" "count" (float_of_int x.test_cycles);
    m "fault_coverage_pct" "%" (100. *. ratio x.detected x.faults);
    m "ok_rate" "ratio" (ratio x.ok x.attempted);
    m "peak_rss_mb" "MiB" x.rss_mb ]

(* An in-process op repeats once per pass; it counts once, at its median
   time, in the run's op latencies.  An op that was never ok is left out. *)
let op_medians times =
  Array.of_list
    (List.filter_map
       (function [] -> None | l -> Some (median (Array.of_list l)))
       (Array.to_list times))

(* The per-layer figures every workload reports (its traced run's
   result); the layers only some workloads exercise go to the traced
   run's metadata instead. *)
type layers = {
  decisions : int;  (** ATPG decisions *)
  backtracks : int;
  omit_trials : int;  (** omission trials *)
  omit_accepted : int;
  kernel : metric list;  (** [Kernel.probe] over the workload's sequences *)
  build_s : float;  (** circuit, scan chain and fault model builds *)
  overhead_pct : float;  (** traced over untraced time of the same work *)
  uncovered_s : float;  (** traced time no layer span covers *)
}

let layer_result l =
  [ m "atpg.decisions" "count" (float_of_int l.decisions);
    m "atpg.backtracks" "count" (float_of_int l.backtracks);
    m "compaction.omit_trials" "count" (float_of_int l.omit_trials);
    m "compaction.omit_accept_ratio" "ratio" (ratio l.omit_accepted l.omit_trials);
    m "circuits.build_s" "s" l.build_s;
    m "trace.overhead_pct" "%" l.overhead_pct;
    m "trace.uncovered_s" "s" l.uncovered_s ]
  @ l.kernel

(* ---- spans (traced mode) ---- *)

(* The benchmark-side collector: a span around each public layer call,
   tagged with the op it belongs to.  Spans stay in memory until the run
   ends. *)
let tracer = ref Obs.Trace.null

let span ?op name f =
  let attrs =
    match op with
    | None -> []
    | Some i -> [ "op", string_of_int i ]
  in
  Obs.Trace.with_span !tracer ~attrs name f

let dur_s (s : Obs.Trace.span) = Obs.Clock.to_s (s.stop_ns - s.start_ns)

(* Total and self seconds per span name.  Self time is a span's duration
   minus the part its direct children cover (children of one span never
   overlap: the collector is single-domain). *)
let span_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      if s.parent <> 0 then begin
        let prev = try Hashtbl.find child s.parent with Not_found -> 0. in
        Hashtbl.replace child s.parent (prev +. dur_s s)
      end)
    spans;
  let tot = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let d = dur_s s in
      let c = try Hashtbl.find child s.id with Not_found -> 0. in
      let t, sf = try Hashtbl.find tot s.name with Not_found -> 0., 0. in
      Hashtbl.replace tot s.name (t +. d, sf +. (d -. c)))
    spans;
  fun name -> try Hashtbl.find tot name with Not_found -> 0., 0.

let top_level_s spans =
  List.fold_left
    (fun acc (s : Obs.Trace.span) -> if s.parent = 0 then acc +. dur_s s else acc)
    0. spans

(* [layer_metrics spans names ~parents] reports [<name>_s] (inclusive)
   for every span name and [<name>.self_s] for the [parents], the spans
   that have children. *)
let layer_metrics ?(parents = []) spans names =
  let times = span_times spans in
  List.map (fun name -> m (name ^ "_s") "s" (fst (times name))) names
  @ List.map (fun name -> m (name ^ ".self_s") "s" (snd (times name))) parents

(* ---- processes ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let key = "VmHWM:" in
  let kb =
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:key line then
          let v = String.sub line 6 (String.length line - 6) in
          Scanf.sscanf v " %d kB" Option.some
        else None)
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid)))
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith ("no VmHWM for process " ^ pid)

let self_peak_rss_mb () = peak_rss_mb "self"

let loadavg () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | a :: _ -> float_of_string a
  | [] -> 0.

(* Aggregate CPU jiffies from /proc/stat: (total, steal). *)
let cpu_times () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ ->
    let f =
      List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line))
    in
    List.fold_left ( + ) 0 f, (match List.nth_opt f 7 with Some x -> x | None -> 0)
  | [] -> 0, 0

let cpu_at_start = cpu_times ()

(* Share of CPU time the hypervisor took from this host since [mark], a
   [cpu_times ()] reading, in percent. *)
let steal_pct_since (t0, s0) =
  let t1, s1 = cpu_times () in
  100. *. ratio (s1 - s0) (t1 - t0)

(* The git revision of the checkout, when it is a git work tree. *)
let git_rev () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.starts_with ~prefix:"ref: " head then
      String.trim (read_file (".git/" ^ String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "unknown"

(* ---- output ---- *)

let json_metrics ms =
  Obs.Json.Obj
    (List.map
       (fun { name; value; unit_ } ->
         if not (Float.is_finite value) then
           failwith (Printf.sprintf "metric %s is not finite" name);
         ( name,
           Obs.Json.Obj [ "value", Obs.Json.Float value; "unit", Obs.Json.Str unit_ ] ))
       ms)

(* The traced run's per-layer figures of the layers only this workload
   exercises, for its metadata line. *)
let layers_meta ms = "layers", json_metrics ms

let meta_line o ~load_before ~extra =
  Obs.Json.Obj
    ([ "workload", Obs.Json.Str o.workload;
       "seed", Obs.Json.Int o.seed;
       "seconds", Obs.Json.Float o.seconds;
       "trace", Obs.Json.Bool o.traced;
       "nproc", Obs.Json.Int nproc;
       "ocaml", Obs.Json.Str Sys.ocaml_version;
       "git_rev", Obs.Json.Str (git_rev ());
       "profile", Obs.Json.Str o.profile;
       "loadavg_before", Obs.Json.Float load_before;
       "loadavg_after", Obs.Json.Float (loadavg ());
       (* CPU time the hypervisor took from this host during the run *)
       "cpu_steal_pct", Obs.Json.Float (steal_pct_since cpu_at_start) ]
    @ extra)

(* Print the run record (metadata plus the result) to the workdir, the
   metadata line to stdout, and the result as stdout's last line. *)
let emit o ~load_before ~extra ~correct ~attempted ~failed ms =
  let meta = meta_line o ~load_before ~extra in
  let result =
    Obs.Json.Obj
      [ "correct", Obs.Json.Bool correct;
        "attempted", Obs.Json.Int attempted;
        "failed", Obs.Json.Int failed;
        "metrics", json_metrics ms ]
  in
  let record =
    Filename.concat o.workdir
      (Printf.sprintf "%s-seed%d-trace%d.json" o.workload o.seed
         (if o.traced then 1 else 0))
  in
  Obs.Fileio.write_string record
    (Obs.Json.to_string (Obs.Json.Obj [ "meta", meta; "result", result ]) ^ "\n");
  print_endline (Obs.Json.to_string (Obs.Json.Obj [ "meta", meta ]));
  print_endline (Obs.Json.to_string result)

(* Raised by the SIGTERM/SIGINT handler, so every cleanup runs. *)
exception Interrupted

let log fmt = Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")
