(* The simulation-kernel probe: one fault-simulation session per
   sequence, over every fault of the circuit, fed the whole sequence with
   [Faultsim.advance]; the session's own counters give the work done. *)

open Common

let probe pairs =
  let events = ref 0 and gframes = ref 0 and ns = ref 0 in
  List.iter
    (fun (model, seq) ->
      let fault_ids = Array.init (Faultmodel.Model.fault_count model) Fun.id in
      span "logicsim.advance" (fun () ->
          let t0 = now_ns () in
          let s = Logicsim.Faultsim.create model ~fault_ids in
          Logicsim.Faultsim.advance s seq;
          ns := !ns + Obs.Clock.elapsed_ns t0;
          let st = Logicsim.Faultsim.stats s in
          events := !events + st.events;
          gframes := !gframes + st.gframes))
    pairs;
  [ m "logicsim.ns_per_event" "ns" (float_of_int !ns /. float_of_int (max 1 !events));
    m "logicsim.events" "count" (float_of_int !events);
    m "logicsim.gframes" "count" (float_of_int !gframes) ]
