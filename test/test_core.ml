(* Core flow, testability pruning, report rendering and configuration. *)

module C = Netlist.Circuit
module G = Netlist.Gate
module L = Netlist.Logic
module Model = Faultmodel.Model

let setup name =
  let scan = Scanins.Scan.insert (Circuits.Catalog.circuit name) in
  scan, Model.build scan.Scanins.Scan.circuit

(* --------------------------------------------------------- testability *)

let test_testability_s27_all_testable () =
  let _, m = setup "s27" in
  let targets, redundant, unknown =
    Core.Testability.partition m ~backtrack_limit:2000
  in
  Alcotest.(check int) "no redundancy in s27_scan" 0 (Array.length redundant);
  Alcotest.(check int) "no unknowns" 0 (Array.length unknown);
  Alcotest.(check int) "all targeted" (Model.fault_count m) (Array.length targets)

let test_testability_finds_redundancy () =
  (* OR(a, AND(a,b)) — AND output stuck-at-0 is masked. *)
  let b = C.Builder.create ~name:"red" () in
  C.Builder.add_input b "a";
  C.Builder.add_input b "b";
  C.Builder.add_gate b "q" G.Dff [ "o" ];
  C.Builder.add_gate b "g" G.And [ "a"; "b" ];
  C.Builder.add_gate b "o" G.Or [ "a"; "g" ];
  C.Builder.add_output b "o";
  let m = Model.build (C.Builder.build b) in
  let _, redundant, _ = Core.Testability.partition m ~backtrack_limit:5000 in
  Alcotest.(check bool) "found redundancy" true (Array.length redundant > 0);
  (* Every proven-redundant fault really has no test: brute-force all 4
     input combinations from all 2 states, observing o and q'. *)
  Array.iter
    (fun fid ->
      let detected = ref false in
      for st = 0 to 1 do
        for a = 0 to 1 do
          for bv = 0 to 1 do
            let state = [| L.of_bool (st = 1) |] in
            let vec = [| L.of_bool (a = 1); L.of_bool (bv = 1) |] in
            let s =
              Logicsim.Faultsim.create ~good_state:state
                ~faulty_states:(fun _ -> state)
                m ~fault_ids:[| fid |]
            in
            Logicsim.Faultsim.advance s [| vec |];
            if
              Logicsim.Faultsim.detection_time s fid <> None
              || Logicsim.Faultsim.ff_effects s fid <> []
            then detected := true
          done
        done
      done;
      if !detected then
        Alcotest.failf "fault %s wrongly proven redundant" (Model.fault_name m fid))
    redundant

(* ---------------------------------------------------------------- flow *)

let test_flow_s27_full_coverage () =
  let scan, m = setup "s27" in
  let sk = Atpg.Scan_knowledge.create scan in
  let cfg = Core.Config.for_circuit scan.Scanins.Scan.original in
  let flow = Core.Flow.generate cfg sk m in
  Alcotest.(check int) "universe" 58 flow.Core.Flow.universe;
  Alcotest.(check int) "full coverage" flow.Core.Flow.targeted flow.Core.Flow.detected;
  Alcotest.(check (float 0.001)) "100%" 100.0 (Core.Flow.coverage flow);
  (* The sequence is fully specified. *)
  Array.iter
    (fun v -> Array.iter (fun b -> Alcotest.(check bool) "binary" true (L.is_binary b)) v)
    flow.Core.Flow.sequence;
  (* Detection accounting adds up. *)
  Alcotest.(check int) "attribution"
    flow.Core.Flow.detected
    (flow.Core.Flow.by_random + flow.Core.Flow.by_atpg + flow.Core.Flow.by_drain
     + flow.Core.Flow.by_justify);
  (* Targets carry consistent detection times. *)
  let t = flow.Core.Flow.targets in
  Alcotest.(check int) "target count" flow.Core.Flow.detected
    (Compaction.Target.count t);
  Array.iteri
    (fun i fid ->
      match Logicsim.Faultsim.detects_single m ~fault:fid flow.Core.Flow.sequence with
      | Some time -> Alcotest.(check int) "det time" time t.Compaction.Target.det_times.(i)
      | None -> Alcotest.fail "target not detected by sequence")
    t.Compaction.Target.fault_ids

let test_flow_without_random_phase () =
  let scan, m = setup "s27" in
  let sk = Atpg.Scan_knowledge.create scan in
  let cfg =
    { (Core.Config.for_circuit scan.Scanins.Scan.original) with
      Core.Config.random_phase = None }
  in
  let flow = Core.Flow.generate cfg sk m in
  Alcotest.(check int) "no random detections" 0 flow.Core.Flow.by_random;
  Alcotest.(check bool) "still near-full" true (Core.Flow.coverage flow > 95.0)

let test_flow_deterministic () =
  let scan, m = setup "s27" in
  let sk = Atpg.Scan_knowledge.create scan in
  let cfg = Core.Config.for_circuit scan.Scanins.Scan.original in
  let a = (Core.Flow.generate cfg sk m).Core.Flow.sequence in
  let b = (Core.Flow.generate cfg sk m).Core.Flow.sequence in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i v ->
      Array.iteri
        (fun j x ->
          if not (L.equal x b.(i).(j)) then Alcotest.fail "nondeterministic")
        v)
    a

let test_flow_seed_changes_sequence () =
  let scan, m = setup "s27" in
  let sk = Atpg.Scan_knowledge.create scan in
  let base = Core.Config.for_circuit scan.Scanins.Scan.original in
  let a = (Core.Flow.generate base sk m).Core.Flow.sequence in
  let b =
    (Core.Flow.generate { base with Core.Config.seed = 999L } sk m).Core.Flow.sequence
  in
  let same =
    Array.length a = Array.length b
    && Array.for_all2 (fun v w -> Array.for_all2 L.equal v w) a b
  in
  Alcotest.(check bool) "different seed, different sequence" false same

(* -------------------------------------------------------------- report *)

let test_report_sequence_rendering () =
  let scan, _ = setup "s27" in
  let seq = [| Logicsim.Vectors.parse "010100"; Logicsim.Vectors.parse "1111x1" |] in
  let s = Core.Report.sequence scan seq in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "   t");
  (* Two data rows. *)
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "rows" 3 (List.length lines)

let test_report_scan_runs () =
  let scan, _ = setup "s27" in
  let mk sel =
    let v = Array.make 6 L.Zero in
    v.(4) <- sel;
    v
  in
  let seq = [| mk L.One; mk L.One; mk L.Zero; mk L.One; mk L.Zero; mk L.One |] in
  Alcotest.(check (list (pair int int))) "runs" [ (0, 2); (3, 1); (5, 1) ]
    (Core.Report.scan_runs scan seq)

let test_report_tables_render () =
  let row5 =
    { Core.Pipeline.name = "x"; inp = 5; stvr = 3; faults = 10; detected = 9;
      fcov = 90.0; funct = 1 }
  in
  let len = { Core.Pipeline.total = 10; scan = 4 } in
  let row6 =
    { Core.Pipeline.name = "x"; test_len = len; restor_len = len; omit_len = len;
      ext_det = 0; baseline_cycles = 42 }
  in
  let row7 =
    { Core.Pipeline.name = "x"; test_len = len; restor_len = len; omit_len = len;
      baseline_cycles = 42 }
  in
  let t5 = Core.Report.table5 [ row5 ] in
  let t6 = Core.Report.table6 [ row6 ] in
  let t7 = Core.Report.table7 [ row7 ] in
  List.iter
    (fun (s, frag) ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ frag) true (contains s frag))
    [ (t5, "90.00"); (t6, "42"); (t6, "total"); (t7, "42") ]

(* -------------------------------------------------------------- tester *)

let test_tester_expected_responses () =
  let scan, m = setup "s27" in
  let rng = Prng.Rng.create 71L in
  let seq =
    Logicsim.Vectors.random_seq rng
      ~width:(C.input_count m.Model.circuit) ~length:40
  in
  let program = Core.Tester.build scan.Scanins.Scan.circuit seq in
  Alcotest.(check int) "one cycle per vector" 40
    (Array.length program.Core.Tester.cycles);
  (* Expected responses must equal an independent good simulation. *)
  let sim = Logicsim.Goodsim.create scan.Scanins.Scan.circuit in
  Array.iteri
    (fun t cy ->
      Logicsim.Goodsim.step sim seq.(t);
      let po = Logicsim.Goodsim.po_values sim in
      Array.iteri
        (fun j v ->
          if not (L.equal v cy.Core.Tester.expected.(j)) then
            Alcotest.failf "cycle %d output %d" t j)
        po)
    program.Core.Tester.cycles;
  Alcotest.(check bool) "some cycles observe" true
    (Core.Tester.observing_cycles program > 10)

let test_tester_rendering () =
  let scan, m = setup "s27" in
  ignore m;
  let seq = [| Logicsim.Vectors.parse "010100" |] in
  let program = Core.Tester.build scan.Scanins.Scan.circuit seq in
  let text = Core.Tester.to_string program in
  let lines = String.split_on_char '\n' (String.trim text) in
  (* 4 header lines + 1 cycle. *)
  Alcotest.(check int) "lines" 5 (List.length lines);
  Alcotest.(check bool) "has separator" true
    (String.contains (List.nth lines 4) '|')

(* -------------------------------------------------------------- config *)

let test_config_for_circuit () =
  let c = Circuits.Catalog.circuit "s298" in
  let cfg = Core.Config.for_circuit c in
  Alcotest.(check bool) "depths non-empty" true
    (cfg.Core.Config.atpg.Atpg.Seq_atpg.depths <> []);
  Alcotest.(check int) "one chain default" 1 cfg.Core.Config.chains

(* -------------------------------------------------------------- golden *)

(* The paper's Tables 5-7 for s27 and s298 (quick scale, default seed),
   rendered as [scanatpg table 5|6|7 --circuits s27,s298] prints them.
   The same bytes at sim_jobs = compact_jobs = 1 and 3: neither the jobs
   setting nor any refactor of the engines may move a row. *)
let test_golden_tables () =
  let expected = In_channel.with_open_bin "golden/tables_quick.txt" In_channel.input_all in
  List.iter
    (fun jobs ->
      let results =
        List.map
          (fun name ->
            let config =
              Core.Config.with_compact_jobs jobs
                (Core.Config.with_sim_jobs jobs
                   (Core.Config.for_circuit (Circuits.Catalog.circuit name)))
            in
            Core.Pipeline.run ~config name)
          [ "s27"; "s298" ]
      in
      let rows f = List.map f results in
      let got =
        Core.Report.table5 (rows (fun r -> r.Core.Pipeline.row5))
        ^ Core.Report.table6 (rows (fun r -> r.Core.Pipeline.row6))
        ^ Core.Report.table7 (List.filter_map (fun r -> r.Core.Pipeline.row7) results)
      in
      Alcotest.(check string) (Printf.sprintf "tables at jobs %d" jobs) expected got)
    [ 1; 3 ]

let () =
  Alcotest.run "core"
    [
      ( "testability",
        [
          Alcotest.test_case "s27 all testable" `Quick test_testability_s27_all_testable;
          Alcotest.test_case "proves real redundancy" `Quick
            test_testability_finds_redundancy;
        ] );
      ( "flow",
        [
          Alcotest.test_case "s27 full coverage" `Quick test_flow_s27_full_coverage;
          Alcotest.test_case "no random phase" `Quick test_flow_without_random_phase;
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_flow_seed_changes_sequence;
        ] );
      ( "report",
        [
          Alcotest.test_case "sequence rendering" `Quick test_report_sequence_rendering;
          Alcotest.test_case "scan runs" `Quick test_report_scan_runs;
          Alcotest.test_case "tables render" `Quick test_report_tables_render;
        ] );
      ( "golden",
        [ Alcotest.test_case "tables 5-7 s27 s298 at jobs 1 and 3" `Quick test_golden_tables ] );
      ( "csv",
        [
          Alcotest.test_case "table csv exports" `Quick (fun () ->
              let row5 =
                { Core.Pipeline.name = "c1"; inp = 5; stvr = 3; faults = 10;
                  detected = 9; fcov = 90.0; funct = 1 }
              in
              let len = { Core.Pipeline.total = 10; scan = 4 } in
              let row6 =
                { Core.Pipeline.name = "c1"; test_len = len; restor_len = len;
                  omit_len = len; ext_det = 2; baseline_cycles = 42 }
              in
              let row7 =
                { Core.Pipeline.name = "c1"; test_len = len; restor_len = len;
                  omit_len = len; baseline_cycles = 42 }
              in
              let lines s = String.split_on_char '\n' (String.trim s) in
              Alcotest.(check int) "t5 lines" 2
                (List.length (lines (Core.Report.table5_csv [ row5 ])));
              Alcotest.(check string) "t5 row" "c1,5,3,10,9,90.00,1"
                (List.nth (lines (Core.Report.table5_csv [ row5 ])) 1);
              Alcotest.(check string) "t6 row" "c1,10,4,10,4,10,4,2,42"
                (List.nth (lines (Core.Report.table6_csv [ row6 ])) 1);
              Alcotest.(check string) "t7 row" "c1,10,4,10,4,10,4,42"
                (List.nth (lines (Core.Report.table7_csv [ row7 ])) 1));
        ] );
      ( "tester",
        [
          Alcotest.test_case "expected responses" `Quick
            test_tester_expected_responses;
          Alcotest.test_case "rendering" `Quick test_tester_rendering;
        ] );
      ( "config",
        [ Alcotest.test_case "for_circuit" `Quick test_config_for_circuit ] );
    ]
