type addr =
  | Unix_sock of string
  | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

(* Per-connection state.  [dec], [eof], [frames], [last_ns] and
   [partial_ns] belong to the loop alone; [inflight] and [closed] are
   shared with whoever answers requests and are guarded by [wmu], which
   also serialises response writes so frames never interleave. *)
type conn = {
  fd : Unix.file_descr;
  cid : int;
  peer : string;
  dec : Protocol.decoder;
  wmu : Mutex.t;
  mutable frames : int;
  mutable inflight : int;
  mutable eof : bool;
  mutable closed : bool;
  mutable last_ns : int;  (* last byte received (idle-timeout clock) *)
  mutable partial_ns : int;  (* first byte of an incomplete frame, or 0 *)
}

type t = {
  addr : addr;
  lfd : Unix.file_descr;
  name : string;
  verbose : bool;
  fp : Obs.Failpoint.t;
  count : string -> unit;
  read_deadline_s : float option;
  idle_timeout_s : float option;
  buf : Bytes.t;
  mutable conns : conn list;
  mutable next_cid : int;
}

let cid c = c.cid
let peer c = c.peer
let frames c = c.frames

let locked c f =
  Mutex.lock c.wmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.wmu) f

let close_locked c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let close c = locked c (fun () -> close_locked c)
let inflight c = locked c (fun () -> c.inflight)
let admit c = locked c (fun () -> c.inflight <- c.inflight + 1)

let finish c =
  locked c (fun () ->
      c.inflight <- c.inflight - 1;
      if c.eof && c.inflight = 0 then close_locked c)

let say t fmt =
  Printf.ksprintf
    (fun s -> if t.verbose then Printf.eprintf "scanatpg %s: %s\n%!" t.name s)
    fmt

(* Both listener and accepted fds are close-on-exec: a worker that shells
   out (or a spawned shard) must not hold the service port open past the
   front-end's own lifetime. *)
let listen_socket = function
  | Unix_sock path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd 64;
    fd

let create ?drain_flag ?read_deadline_s ?idle_timeout_s ~name ~verbose ~fp
    ~count addr =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  Option.iter
    (fun flag ->
      let h = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
      ignore (Sys.signal Sys.sigterm h);
      ignore (Sys.signal Sys.sigint h))
    drain_flag;
  {
    addr;
    lfd = listen_socket addr;
    name;
    verbose;
    fp;
    count;
    read_deadline_s;
    idle_timeout_s;
    buf = Bytes.create 65536;
    conns = [];
    next_cid = 0;
  }

(* Write one response frame; a dead peer (EPIPE, reset, send timeout) or
   an injected [writer] fault poisons the connection but never the
   front-end.  Every abort is counted, so the loss is visible without
   relying on writer-side EPIPE handling. *)
let send t c payload =
  locked c (fun () ->
      if not c.closed then
        try
          Obs.Failpoint.hit t.fp "writer";
          Protocol.write_frame c.fd payload
        with _ ->
          t.count "conn_aborted";
          close_locked c)

type reading =
  | Open
  | Eof
  | Too_large of string

let read_frames t fd dec on_frame =
  match Unix.read fd t.buf 0 (Bytes.length t.buf) with
  | 0 | (exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)) ->
    Eof
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    Open
  | n ->
    Protocol.feed dec t.buf 0 n;
    let rec frames () =
      match Protocol.next dec with
      | exception Protocol.Frame_too_large { announced; max } ->
        Too_large
          (Printf.sprintf "frame of %d bytes exceeds maximum %d" announced max)
      | Some payload ->
        on_frame payload;
        frames ()
      | None -> Open
    in
    frames ()

let read_client t c on_frame =
  match
    read_frames t c.fd c.dec (fun payload ->
        c.frames <- c.frames + 1;
        on_frame c payload)
  with
  | Eof ->
    c.eof <- true;
    if Protocol.pending c.dec > 0 then begin
      (* The peer hung up mid-frame: the buffered prefix can never become
         a request, so the loss is accounted rather than silently dropped. *)
      t.count "bad_request";
      t.count "conn_aborted"
    end;
    locked c (fun () -> if c.inflight = 0 then close_locked c)
  | Too_large msg ->
    (* The stream cannot be resynchronised past a bogus length prefix;
       answer with a typed error (best effort — the sender may already be
       gone), then hang up. *)
    t.count "bad_request";
    t.count "conn_aborted";
    send t c (Protocol.error_response ~id:0 "error" msg);
    close c
  | Open ->
    (* [partial_ns] stamps the first byte of the current partial frame
       and clears once it completes, for the read-deadline sweep. *)
    c.last_ns <- Obs.Clock.now_ns ();
    if Protocol.pending c.dec = 0 then c.partial_ns <- 0
    else if c.partial_ns = 0 then c.partial_ns <- c.last_ns

let wait timeout handlers =
  match Unix.select (List.map fst handlers) [] [] timeout with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
  | ready, _, _ ->
    List.iter (fun (fd, h) -> if List.mem fd ready then h ()) handlers

let peer_of_sockaddr = function
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let accept t =
  match Unix.accept ~cloexec:true t.lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, sa -> (
    match Obs.Failpoint.hit t.fp "accept" with
    | exception (Obs.Failpoint.Injected _ | Obs.Failpoint.Crashed _) ->
      (* An injected accept failure drops the connection on the floor —
         to the peer it looks like a reset, which is exactly what the
         retrying client must survive. *)
      t.count "conn_aborted";
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | () ->
      (match sa with
      | Unix.ADDR_INET _ -> (
        try Unix.setsockopt fd Unix.SO_KEEPALIVE true
        with Unix.Unix_error _ -> ())
      | Unix.ADDR_UNIX _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0
       with Unix.Unix_error _ -> ());
      t.next_cid <- t.next_cid + 1;
      let c =
        {
          fd;
          cid = t.next_cid;
          peer = peer_of_sockaddr sa;
          dec = Protocol.decoder ();
          wmu = Mutex.create ();
          frames = 0;
          inflight = 0;
          eof = false;
          closed = false;
          last_ns = Obs.Clock.now_ns ();
          partial_ns = 0;
        }
      in
      say t "connection %d from %s" c.cid c.peer;
      t.conns <- c :: t.conns)

(* Deadline sweep, once per tick (so granularity is the select timeout,
   100ms): a connection stuck mid-frame past the read deadline is a
   slowloris and is cut; a connection with no traffic, no partial frame
   and nothing in flight past the idle timeout is reclaimed.  Reads of
   [closed]/[inflight] here are benignly racy — a miss is caught on the
   next tick. *)
let sweep t =
  let now = Obs.Clock.now_ns () in
  let past d since = now - since > int_of_float (d *. 1e9) in
  List.iter
    (fun c ->
      if (not c.eof) && not c.closed then begin
        (match t.read_deadline_s with
        | Some d when c.partial_ns > 0 && past d c.partial_ns ->
          t.count "bad_request";
          t.count "conn_aborted";
          say t "read deadline (%.1fs) exceeded by %s, closing" d c.peer;
          close c
        | _ -> ());
        match t.idle_timeout_s with
        | Some d
          when (not c.closed) && c.partial_ns = 0 && c.inflight = 0
               && past d c.last_ns ->
          t.count "conn_idle_closed";
          say t "idle timeout (%.1fs) for %s, closing" d c.peer;
          close c
        | _ -> ()
      end)
    t.conns

let serve t ?(extra = fun () -> []) ?(tick = ignore) ~stop on_frame =
  while not (stop ()) do
    t.conns <- List.filter (fun c -> locked c (fun () -> not c.closed)) t.conns;
    tick ();
    let clients =
      List.filter_map
        (fun c ->
          let read () = if not c.closed then read_client t c on_frame in
          if c.eof then None else Some (c.fd, read))
        t.conns
    in
    wait 0.1 (((t.lfd, fun () -> accept t) :: extra ()) @ clients);
    sweep t
  done

let stop_listening t = try Unix.close t.lfd with Unix.Unix_error _ -> ()

let close_all t =
  List.iter close t.conns;
  match t.addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
