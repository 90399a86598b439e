(* Workload [compact-spec]: static compaction alone, in process.  Setup
   builds two input sequences per circuit -- the unified flow's generated
   sequence and the translated, compacted [26] baseline set (the Table 7
   input) -- and each op compacts one of them the way the [compact]
   subcommand does: targets over every fault, then Restoration ->
   Target.compute -> Omission at compact_jobs = 2, no shared pool. *)

open Common

let circuits = [ "s298"; "s344"; "s820"; "b03" ]
let scale = Circuits.Profiles.Quick
let compact_jobs = 2

type input = {
  label : string;  (** circuit/kind *)
  model : Faultmodel.Model.t;
  cfg : Core.Config.t;
  seq : Logicsim.Vectors.t;
  targets : Compaction.Target.t;
}

let build name =
  span "circuits.build" (fun () ->
      let c = Circuits.Catalog.circuit ~scale name in
      let cfg =
        Core.Config.with_compact_jobs compact_jobs
          (Core.Config.with_sim_jobs 1 (Core.Config.for_circuit c))
      in
      let scan = Scanins.Scan.insert ~chains:cfg.chains c in
      cfg, scan, Faultmodel.Model.build scan.circuit)

(* [metrics] collects the flow's ATPG counters (traced mode). *)
let setup ?metrics () =
  List.concat_map
    (fun name ->
      let cfg, scan, model = build name in
      let sk = Atpg.Scan_knowledge.create scan in
      let flow =
        span "core.generate" (fun () -> Core.Flow.generate ?metrics cfg sk model)
      in
      let base =
        span "baseline.gen26" (fun () -> Baseline.Gen26.generate scan model cfg.atpg)
      in
      let tests =
        span "baseline.compact26" (fun () ->
            Baseline.Compact26.run scan model ~fault_ids:base.detected base.tests)
      in
      let t7 =
        span "translation.translate" (fun () ->
            let rng = Prng.Rng.of_string cfg.seed (name ^ "/translate") in
            Translation.Translate.run scan ~tests ~rng)
      in
      let all = Array.init (Faultmodel.Model.fault_count model) Fun.id in
      List.map
        (fun (kind, seq) ->
          { label = name ^ "/" ^ kind; model; cfg; seq;
            targets =
              span "compaction.target" (fun () ->
                  Compaction.Target.compute model seq ~fault_ids:all) })
        [ "generated", flow.sequence; "translated", t7 ])
    circuits
  |> Array.of_list

type acc = {
  rstats : Compaction.Restoration.stats;
  spec : Compaction.Spec.counters;
  mutable omit : Compaction.Omission.stats list;
  mutable restore_in : int;
  mutable restore_out : int;
}

let make_acc () =
  { rstats = Compaction.Restoration.make_stats (); spec = Compaction.Spec.make ();
    omit = []; restore_in = 0; restore_out = 0 }

let op ~id acc (inp : input) =
  let restored =
    span ~op:id "compaction.restore" (fun () ->
        Compaction.Restoration.run ~stats:acc.rstats ~jobs:inp.cfg.compact_jobs
          ~spec:acc.spec inp.model inp.seq inp.targets)
  in
  let targets_r =
    span ~op:id "compaction.target" (fun () ->
        Compaction.Target.compute inp.model restored ~fault_ids:inp.targets.fault_ids)
  in
  let omitted, _, ostats =
    span ~op:id "compaction.omit" (fun () ->
        Compaction.Omission.run ~spec:acc.spec inp.model restored targets_r
          inp.cfg.omission)
  in
  acc.omit <- ostats :: acc.omit;
  acc.restore_in <- acc.restore_in + Array.length inp.seq;
  acc.restore_out <- acc.restore_out + Array.length restored;
  omitted

(* One pass: every input once in seed order; returns the compacted
   sequences in input order, each with its op's wall seconds ([None] for
   an op that raised). *)
let pass ~order acc inputs =
  let out = Array.make (Array.length inputs) None in
  Array.iteri
    (fun k i ->
      settle ();
      let t0 = now_ns () in
      match op ~id:(k + 1) acc inputs.(i) with
      | s -> out.(i) <- Some (s, secs_since t0)
      | exception e ->
        log "compact-spec: %s failed: %s" inputs.(i).label (Printexc.to_string e))
    order;
  out

let run (o : options) =
  let load_before = loadavg () in
  let setups = ref [] and inputs = ref [||] in
  for _ = 1 to 3 do
    let i, dt = time (fun () -> setup ()) in
    setups := dt :: !setups;
    inputs := i
  done;
  let inputs = !inputs in
  let n = Array.length inputs in
  let order = shuffle ~seed:o.seed ~salt:"compact-spec" n in
  (* pass 1's compacted sequences are the reference of later passes *)
  let reference = ref None in
  let attempted = ref 0 and failed = ref 0 in
  (* each op's ok times, one per pass *)
  let op_times = Array.make n [] in
  let pass_means = ref [] in
  (* the last pass's sequences that passed their check *)
  let last_ok = ref [||] in
  let check out =
    let seqs = Array.map (Option.map fst) out in
    let ok =
      Array.mapi
        (fun i r ->
          incr attempted;
          let ok =
            match r with
            | None -> false
            | Some s ->
              Compaction.Target.detected_by inputs.(i).model s inputs.(i).targets
              && (match !reference with
                  | None -> true
                  | Some refs -> refs.(i) = r)
          in
          if not ok then begin
            incr failed;
            log "compact-spec: %s failed its check" inputs.(i).label
          end;
          ok)
        seqs
    in
    let ok_ms = ref [] in
    Array.iteri
      (fun i r ->
        match r with
        | Some (_, dt) when ok.(i) ->
          op_times.(i) <- (1e3 *. dt) :: op_times.(i);
          ok_ms := (1e3 *. dt) :: !ok_ms
        | _ -> ())
      out;
    pass_means := mean !ok_ms :: !pass_means;
    if !reference = None then reference := Some seqs;
    last_ok := Array.mapi (fun i s -> if ok.(i) then s else None) seqs
  in
  let pass_times = run_passes o (fun () -> pass ~order (make_acc ()) inputs) ~after:check in
  (* tester cycles of the checked sequences, and the faults they detect:
     every target, which [Target.detected_by] confirmed *)
  let test_cycles, detected =
    Array.fold_left
      (fun (c, d) (i, r) ->
        match r with
        | Some s -> c + Array.length s, d + Compaction.Target.count inputs.(i).targets
        | None -> c, d)
      (0, 0)
      (Array.mapi (fun i r -> i, r) !last_ok)
  in
  let faults =
    Array.fold_left (fun a i -> a + Faultmodel.Model.fault_count i.model) 0 inputs
  in
  let pass_meta =
    [ "passes", Obs.Json.Int (Array.length pass_times);
      "pass_s", Obs.Json.Float (median pass_times);
      "pass_times_s",
      Obs.Json.Arr (Array.to_list (Array.map (fun x -> Obs.Json.Float x) pass_times));
      "op_median_ms",
      Obs.Json.Obj
        (List.filter_map Fun.id
           (Array.to_list
              (Array.mapi
                 (fun i l ->
                   if l = [] then None
                   else Some (inputs.(i).label, Obs.Json.Float (median (Array.of_list l))))
                 op_times))) ]
  in
  if not o.traced then
    emit o ~load_before ~extra:pass_meta ~correct:(!failed = 0) ~attempted:!attempted
      ~failed:!failed
      (e2e_metrics
         { setups = Array.of_list !setups;
           op_ms = op_medians op_times;
           op_mean_ms = median (Array.of_list !pass_means);
           test_cycles;
           detected;
           faults;
           ok = !attempted - !failed;
           attempted = !attempted;
           rss_mb = self_peak_rss_mb () })
  else begin
    let untraced = median pass_times in
    (* one traced setup: the ATPG, baseline and translation work that
       produces this workload's inputs *)
    let setup_tr = Obs.Trace.create () in
    tracer := setup_tr;
    let metrics = Obs.Metrics.create () in
    ignore (setup ~metrics ());
    (* then one traced pass *)
    let tr = Obs.Trace.create () in
    tracer := tr;
    let a = make_acc () in
    let t0 = now_ns () in
    let out = pass ~order a inputs in
    let traced_s = secs_since t0 in
    tracer := Obs.Trace.null;
    check out;
    let kernel =
      Kernel.probe (Array.to_list (Array.map (fun i -> i.model, i.seq) inputs))
    in
    let spans = Obs.Trace.spans tr and setup_spans = Obs.Trace.spans setup_tr in
    Obs.Trace.write_chrome tr
      (Filename.concat o.workdir (Printf.sprintf "trace-compact-spec-seed%d.json" o.seed));
    Obs.Trace.write_chrome setup_tr
      (Filename.concat o.workdir
         (Printf.sprintf "trace-compact-spec-setup-seed%d.json" o.seed));
    let times = span_times spans and setup_times = span_times setup_spans in
    let restore_s = fst (times "compaction.restore")
    and omit_s = fst (times "compaction.omit")
    and target_s = fst (times "compaction.target") in
    let trials = List.fold_left (fun x (s : Compaction.Omission.stats) -> x + s.trials) 0 a.omit in
    let accepted =
      List.fold_left (fun x (s : Compaction.Omission.stats) -> x + s.accepted) 0 a.omit
    in
    let c = Obs.Metrics.counters metrics in
    let decisions = Obs.Counters.get c "atpg.decisions" in
    let gen_s = fst (setup_times "core.generate") in
    let result =
      layer_result
        { decisions;
          backtracks = Obs.Counters.get c "atpg.backtracks";
          omit_trials = trials;
          omit_accepted = accepted;
          kernel;
          build_s = fst (setup_times "circuits.build");
          overhead_pct = 100. *. (traced_s -. untraced) /. untraced;
          uncovered_s = traced_s -. top_level_s spans }
    in
    let own =
      layer_metrics spans [ "compaction.restore"; "compaction.target"; "compaction.omit" ]
      @ List.map
          (fun name -> m (name ^ "_s") "s" (fst (setup_times name)))
          [ "core.generate"; "baseline.gen26"; "baseline.compact26"; "translation.translate" ]
      @ [ m "atpg.us_per_decision" "us" (1e6 *. gen_s /. float_of_int (max 1 decisions));
          m "compaction.share" "ratio" ((restore_s +. omit_s +. target_s) /. traced_s);
          m "compaction.us_per_trial" "us" (1e6 *. omit_s /. float_of_int (max 1 trials));
          m "compaction.restore_probes" "count" (float_of_int a.rstats.probes);
          m "compaction.restore_keep_ratio" "ratio" (ratio a.restore_out a.restore_in);
          m "compaction.spec_dispatched" "count" (float_of_int a.spec.dispatched);
          m "compaction.spec_commit_ratio" "ratio" (ratio a.spec.committed a.spec.dispatched) ]
    in
    emit o ~load_before ~extra:(pass_meta @ [ layers_meta own ])
      ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed result
  end
