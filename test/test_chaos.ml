(* Chaos hardening (DESIGN.md #13): deterministic failpoints, worker
   crash containment, connection deadlines, per-connection caps and the
   idempotent retrying batch client.  The connection-layer cases run
   against both the daemon and the router. *)

module P = Server.Protocol
module F = Obs.Failpoint
module J = Obs.Json

(* ---------------------------------------------------------- failpoints *)

let test_spec_parsing () =
  let fp = F.create () in
  let bad spec =
    match F.configure fp spec with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "expected Invalid_argument for %S" spec
  in
  bad "worker";
  bad "worker=explode";
  bad "worker=error@2";
  bad "worker=error@nan";
  bad "worker=error#-1";
  bad "worker=delay:soon";
  bad "seed=abc";
  bad "=error";
  (match F.configure F.null "worker=error" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "null registry must refuse configuration");
  F.configure fp "seed=42; worker=crash@0.03; cache.compile=error#1";
  Alcotest.(check string)
    "describe round-trips (seed excluded)"
    "worker=crash@0.03;cache.compile=error#1" (F.describe fp);
  Alcotest.(check bool) "active" true (F.active fp);
  F.configure fp "off";
  Alcotest.(check string) "off clears" "off" (F.describe fp);
  Alcotest.(check bool) "inactive" false (F.active fp);
  F.configure fp "worker=delay:2@0.5;worker=error";
  Alcotest.(check string) "later entry wins per site" "worker=error"
    (F.describe fp)

let fired_indices fp site n =
  let hits = ref [] in
  for i = 0 to n - 1 do
    match F.hit fp site with
    | () -> ()
    | exception F.Injected _ -> hits := i :: !hits
  done;
  List.rev !hits

let test_draw_determinism () =
  (* same seed and spec => the same draw indices fire, registry to
     registry; a different seed fires a different schedule *)
  let mk seed =
    let fp = F.create () in
    F.configure fp (Printf.sprintf "seed=%d;site=error@0.2" seed);
    fp
  in
  let a = fired_indices (mk 7) "site" 1000 in
  let b = fired_indices (mk 7) "site" 1000 in
  Alcotest.(check (list int)) "same seed, same schedule" a b;
  let k = List.length a in
  Alcotest.(check bool)
    (Printf.sprintf "plausible fire count for p=0.2 (got %d)" k)
    true
    (k > 100 && k < 320);
  let c = fired_indices (mk 8) "site" 1000 in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_max_fires () =
  let fp = F.create () in
  F.configure fp "site=error#2";
  let fired = fired_indices fp "site" 10 in
  Alcotest.(check (list int)) "exactly the first two draws" [ 0; 1 ] fired;
  Alcotest.(check (list (pair string int))) "fires reported" [ ("site", 2) ]
    (F.fires fp)

let test_null_and_misses () =
  F.hit F.null "anything";
  Alcotest.(check bool) "null disabled" false (F.enabled F.null);
  let fp = F.create () in
  F.hit fp "unconfigured";
  F.configure fp "other=crash";
  F.hit fp "unconfigured";
  F.configure fp "other=delay:1";
  (* a delay site returns normally *)
  F.hit fp "other"

(* ------------------------------------------------------------- service *)

let test_compile_injection_leaves_cache_clean () =
  let fp = F.create () in
  F.configure fp "cache.compile=error#1";
  let svc = Server.Service.create ~failpoint:fp () in
  let req =
    P.request_of_string {|{"id":1,"op":"generate","circuit":"s27","seed":3}|}
  in
  let p1, m1 = Server.Service.execute svc ~budget:(Obs.Budget.create ()) req in
  Alcotest.(check string) "typed internal_error" "internal_error"
    m1.Server.Service.status;
  (match J.member "status" (J.parse p1) with
  | Some (J.Str s) ->
    Alcotest.(check string) "payload status" "internal_error" s
  | _ -> Alcotest.fail "payload has no status");
  (* the failed compile left the cache unchanged: the retry recompiles
     and succeeds *)
  let _, m2 = Server.Service.execute svc ~budget:(Obs.Budget.create ()) req in
  Alcotest.(check string) "retry recovers" "ok" m2.Server.Service.status;
  Alcotest.(check string) "retry was a recompile" "miss"
    m2.Server.Service.cache

(* -------------------------------------------------------------- fronts *)

(* The daemon and the router are handlers on one connection layer
   (Server.Conn), so its edge cases run against both.  The router fronts
   two in-process daemon shards. *)
type front = Daemon | Router

(* Prefix of the front's own counters: the connection layer reports
   [conn_aborted] and [bad_request] under it. *)
let prefix = function Daemon -> "server." | Router -> "router."

(* The counter of a typed [overloaded] rejection. *)
let rejected = function
  | Daemon -> "server.rejected"
  | Router -> "router.overloaded"

let quiet_shard socket =
  Server.Daemon.run
    {
      (Server.Daemon.default_config (Server.Daemon.Unix_sock socket)) with
      Server.Daemon.install_signals = false;
      verbose = false;
    }

let with_front ?(max_inflight = 64) ?idle_timeout_s ?read_deadline_s ?chaos
    front f =
  let sock = Filename.temp_file "scanatpg_chaos" ".sock" in
  let addr = Server.Daemon.Unix_sock sock in
  let run =
    match front with
    | Daemon ->
      let cfg =
        {
          (Server.Daemon.default_config addr) with
          Server.Daemon.max_inflight;
          idle_timeout_s;
          read_deadline_s;
          chaos;
          install_signals = false;
          verbose = false;
        }
      in
      fun () -> Server.Daemon.run cfg
    | Router ->
      let cfg =
        {
          (Fleet.Router.default_config addr ~shards:2
             ~launcher:(Fleet.Shard.Inproc quiet_shard))
          with
          Fleet.Router.max_inflight;
          chaos;
          drain_grace_s = 10.0;
          install_signals = false;
          verbose = false;
        }
      in
      fun () -> Fleet.Router.run cfg
  in
  let d = Domain.spawn run in
  let rec wait_up n =
    if n > 250 then Alcotest.fail "front-end did not come up"
    else
      match Server.Client.connect addr with
      | c -> Server.Client.close c
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.02;
        wait_up (n + 1)
  in
  wait_up 0;
  let shutdown () =
    let c = Server.Client.connect addr in
    ignore (Server.Client.call c {|{"id":9999,"op":"shutdown"}|});
    Server.Client.close c
  in
  let result =
    try f addr
    with e ->
      (try shutdown () with _ -> ());
      ignore (Domain.join d);
      raise e
  in
  shutdown ();
  let code = Domain.join d in
  Alcotest.(check int) "front-end drained with exit 0" 0 code;
  result

let counter addr name =
  let c = Server.Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      let resp = Server.Client.call c {|{"id":900,"op":"stats"}|} in
      match J.member "counters" (J.parse resp) with
      | Some cs -> (
        match J.member name cs with Some (J.Int n) -> n | _ -> 0)
      | None -> 0)

let status_of payload =
  match J.member "status" (J.parse payload) with
  | Some (J.Str s) -> s
  | _ -> Alcotest.failf "no status in %s" payload

let test_worker_crash_contained () =
  (* an injected worker death must yield a typed response and a daemon
     that keeps serving and drains cleanly — never a dead domain *)
  with_front Daemon ~chaos:"worker=crash#1" (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let r1 =
            Server.Client.call c {|{"id":1,"op":"generate","circuit":"s27"}|}
          in
          Alcotest.(check string) "crash becomes internal_error"
            "internal_error" (status_of r1);
          (match J.member "id" (J.parse r1) with
          | Some (J.Int id) -> Alcotest.(check int) "echoes id" 1 id
          | _ -> Alcotest.fail "no id");
          let r2 =
            Server.Client.call c {|{"id":2,"op":"generate","circuit":"s27"}|}
          in
          Alcotest.(check string) "worker still serving" "ok" (status_of r2));
      Alcotest.(check int) "restart counted" 1
        (counter addr "server.worker_restarts"))

let test_queue_injection_is_typed () =
  with_front Daemon ~chaos:"queue=error#1" (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let r1 =
            Server.Client.call c {|{"id":1,"op":"generate","circuit":"s27"}|}
          in
          Alcotest.(check string) "queue fault is typed" "internal_error"
            (status_of r1);
          let r2 =
            Server.Client.call c {|{"id":2,"op":"generate","circuit":"s27"}|}
          in
          Alcotest.(check string) "next request fine" "ok" (status_of r2)))

let test_chaos_op_runtime () =
  with_front Daemon (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let call s = Server.Client.call c s in
          let r = call {|{"id":1,"op":"chaos"}|} in
          Alcotest.(check string) "query ok" "ok" (status_of r);
          (match J.member "active" (J.parse r) with
          | Some (J.Str s) -> Alcotest.(check string) "starts off" "off" s
          | _ -> Alcotest.fail "no active field");
          let r =
            call {|{"id":2,"op":"chaos","spec":"worker=delay:1@0.5"}|}
          in
          Alcotest.(check string) "arm ok" "ok" (status_of r);
          (match J.member "active" (J.parse r) with
          | Some (J.Str s) ->
            Alcotest.(check string) "armed" "worker=delay:1@0.5" s
          | _ -> Alcotest.fail "no active field");
          let r = call {|{"id":3,"op":"chaos","spec":"off"}|} in
          (match J.member "active" (J.parse r) with
          | Some (J.Str s) -> Alcotest.(check string) "cleared" "off" s
          | _ -> Alcotest.fail "no active field");
          let r = call {|{"id":4,"op":"chaos","spec":"worker=frob"}|} in
          Alcotest.(check string) "bad spec is a typed error" "error"
            (status_of r)))

let test_per_conn_inflight_cap front () =
  with_front front ~max_inflight:0 (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let r =
            Server.Client.call c {|{"id":1,"op":"generate","circuit":"s27"}|}
          in
          Alcotest.(check string) "capped connection gets overloaded"
            "overloaded" (status_of r);
          (* admin ops bypass the queue and the cap *)
          let r = Server.Client.call c {|{"id":2,"op":"ping"}|} in
          Alcotest.(check string) "ping unaffected" "ok" (status_of r));
      Alcotest.(check int) "rejection counted" 1 (counter addr (rejected front)))

let test_idle_timeout () =
  with_front Daemon ~idle_timeout_s:0.2 (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let r = Server.Client.call c {|{"id":1,"op":"ping"}|} in
          Alcotest.(check string) "live connection works" "ok" (status_of r);
          Unix.sleepf 0.8;
          match Server.Client.call c {|{"id":2,"op":"ping"}|} with
          | exception _ -> ()
          | _ -> Alcotest.fail "idle connection should have been closed");
      Alcotest.(check bool) "idle close counted" true
        (counter addr "server.conn_idle_closed" >= 1))

let test_read_deadline_cuts_slowloris () =
  with_front Daemon ~read_deadline_s:0.2 (fun addr ->
      let sock =
        match addr with
        | Server.Daemon.Unix_sock p -> p
        | _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          (* announce a 10-byte frame, never send the payload *)
          let hdr = Bytes.of_string "\x00\x00\x00\x0a" in
          ignore (Unix.write fd hdr 0 4);
          Unix.sleepf 0.8;
          (* the daemon must have hung up on us *)
          let buf = Bytes.create 1 in
          let closed =
            match Unix.read fd buf 0 1 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error _ -> true
          in
          Alcotest.(check bool) "stalled connection cut" true closed);
      Alcotest.(check bool) "abort counted" true
        (counter addr "server.conn_aborted" >= 1);
      Alcotest.(check bool) "mid-frame stall is a bad request" true
        (counter addr "server.bad_request" >= 1))

let raw_connect addr =
  let sock =
    match addr with
    | Server.Daemon.Unix_sock p -> p
    | _ -> assert false
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let rec wait_until n cond =
  if n > 0 && not (cond ()) then begin
    Unix.sleepf 0.05;
    wait_until (n - 1) cond
  end

let test_midframe_disconnect_accounted front () =
  with_front front (fun addr ->
      let aborted () = counter addr (prefix front ^ "conn_aborted") in
      let fd = raw_connect addr in
      (* two bytes of a header, then vanish *)
      ignore (Unix.write fd (Bytes.of_string "\x00\x00") 0 2);
      Unix.close fd;
      (* let the loop observe the EOF *)
      wait_until 40 (fun () -> aborted () >= 1);
      Alcotest.(check bool) "mid-frame EOF counted as bad request" true
        (counter addr (prefix front ^ "bad_request") >= 1);
      Alcotest.(check bool) "and as a connection abort" true (aborted () >= 1))

let test_oversize_frame front () =
  with_front front (fun addr ->
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* announce a 2 GiB payload, far over the 16 MiB cap *)
          ignore (Unix.write fd (Bytes.of_string "\x7f\xff\xff\xff") 0 4);
          (match P.read_frame fd with
          | None -> Alcotest.fail "hung up without a typed error"
          | Some resp ->
            Alcotest.(check string) "typed error" "error" (status_of resp);
            Alcotest.(check bool) "under id 0" true
              (J.member "id" (J.parse resp) = Some (J.Int 0)));
          Alcotest.(check bool) "then hang-up" true (P.read_frame fd = None));
      Alcotest.(check bool) "counted as bad request" true
        (counter addr (prefix front ^ "bad_request") >= 1);
      Alcotest.(check bool) "and as a connection abort" true
        (counter addr (prefix front ^ "conn_aborted") >= 1))

let test_bad_request_echoes_id front () =
  (* A semantically invalid request (compact without "vectors") and an
     unknown op must be answered under the sender's id, or a pipelining
     client cannot correlate the failure and reports it lost. *)
  with_front front (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          List.iter
            (fun (id, req) ->
              let resp = Server.Client.call c req in
              Alcotest.(check string) "typed error" "error" (status_of resp);
              Alcotest.(check bool) "echoes id" true
                (J.member "id" (J.parse resp) = Some (J.Int id)))
            [ 7, {|{"id":7,"op":"compact","circuit":"s27"}|};
              8, {|{"id":8,"op":"frobnicate"}|} ]))

(* ----------------------------------------------------- retrying client *)

let batch ?retries ?backoff_ms addr lines =
  let input = Filename.temp_file "scanatpg_chaos" ".jsonl" in
  let output = Filename.temp_file "scanatpg_chaos" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove input with Sys_error _ -> ());
      try Sys.remove output with Sys_error _ -> ())
    (fun () ->
      Obs.Fileio.write_string input (String.concat "\n" lines ^ "\n");
      Server.Client.run_batch ~addr ~input ~output ?retries ?backoff_ms ())

let payloads outcomes =
  List.map
    (fun o ->
      ( o.Server.Client.id,
        o.Server.Client.status,
        Option.value ~default:"" o.Server.Client.payload ))
    outcomes

let check_same clean retried =
  List.iter2
    (fun (id1, s1, p1) (id2, s2, p2) ->
      Alcotest.(check int) "same id" id1 id2;
      Alcotest.(check string) "retried run all ok" s1 s2;
      Alcotest.(check string) "byte-identical payload" p1 p2)
    clean retried

let test_retried_batch_byte_identical () =
  (* an injected single connection kill at the writer: the plain client
     loses every in-flight response; the retrying client reconnects,
     replays the unanswered requests, and its payloads are byte-identical
     to an uninterrupted run (idempotency, DESIGN.md §10) *)
  let lines =
    [
      {|{"op":"generate","circuit":"s27","seed":77}|};
      {|{"op":"generate","circuit":"s298","seed":5}|};
      {|{"op":"generate","circuit":"s27","seed":99}|};
    ]
  in
  let clean = with_front Daemon (fun addr -> payloads (batch addr lines)) in
  List.iter
    (fun (_, status, _) -> Alcotest.(check string) "clean ok" "ok" status)
    clean;
  let retried =
    with_front Daemon ~chaos:"writer=error#1" (fun addr ->
        payloads (batch ~retries:4 ~backoff_ms:10 addr lines))
  in
  check_same clean retried;
  (* without retries the same fault loses every response on the killed
     connection *)
  let lost =
    with_front Daemon ~chaos:"writer=error#1" (fun addr ->
        payloads (batch addr lines))
  in
  Alcotest.(check bool) "plain client reports losses" true
    (List.exists (fun (_, s, _) -> s = "lost") lost)

let test_accept_fault_retried front () =
  (* an injected accept failure drops the batch's first connection; the
     retrying client reconnects and its payloads match a clean run *)
  let lines =
    [
      {|{"op":"generate","circuit":"s27","seed":77}|};
      {|{"op":"table","circuit":"s27"}|};
    ]
  in
  let clean = with_front front (fun addr -> payloads (batch addr lines)) in
  let retried =
    with_front front (fun addr ->
        (* armed at runtime, so the start-up probe connection is spared
           and the fault hits the batch's connection *)
        let c = Server.Client.connect addr in
        let r =
          Server.Client.call c
            {|{"id":1,"op":"chaos","spec":"accept=error#1"}|}
        in
        Server.Client.close c;
        Alcotest.(check string) "armed" "ok" (status_of r);
        let out = payloads (batch ~retries:4 ~backoff_ms:10 addr lines) in
        Alcotest.(check int) "dropped connection counted" 1
          (counter addr (prefix front ^ "conn_aborted"));
        out)
  in
  check_same clean retried

(* The connection-layer cases, run against each front-end. *)
let conn_cases front =
  [
    Alcotest.test_case "per-connection cap" `Quick
      (test_per_conn_inflight_cap front);
    Alcotest.test_case "mid-frame disconnect" `Quick
      (test_midframe_disconnect_accounted front);
    Alcotest.test_case "oversize frame" `Quick (test_oversize_frame front);
    Alcotest.test_case "bad request echoes id" `Quick
      (test_bad_request_echoes_id front);
    Alcotest.test_case "accept fault retried byte-identical" `Quick
      (test_accept_fault_retried front);
  ]

let () =
  Alcotest.run "chaos"
    [
      ( "failpoint",
        [
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "draw determinism" `Quick test_draw_determinism;
          Alcotest.test_case "max fires" `Quick test_max_fires;
          Alcotest.test_case "null and misses" `Quick test_null_and_misses;
        ] );
      ( "service",
        [
          Alcotest.test_case "compile injection" `Quick
            test_compile_injection_leaves_cache_clean;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "worker crash contained" `Quick
            test_worker_crash_contained;
          Alcotest.test_case "queue injection typed" `Quick
            test_queue_injection_is_typed;
          Alcotest.test_case "chaos op at runtime" `Quick test_chaos_op_runtime;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "read deadline" `Quick
            test_read_deadline_cuts_slowloris;
        ]
        @ conn_cases Daemon );
      "router", conn_cases Router;
      ( "retry",
        [
          Alcotest.test_case "retried batch byte-identical" `Quick
            test_retried_batch_byte_identical;
        ] );
    ]
