(** The connection layer under `scanatpg serve` and `scanatpg router`
    (DESIGN.md §11).  A front-end is a handler on it: it gets each
    complete request frame of a connection and answers through {!send}.
    The layer owns the listener, accept (close-on-exec, 30 s send
    timeout, keepalive on TCP, the [accept] failpoint), framing (EOF,
    hang-up mid-frame, the typed oversize-frame error), {!send} with the
    [writer] failpoint, in-flight accounting, the read-deadline and idle
    sweep, the select loop, and closing up on drain.

    Its counters ([conn_aborted], [bad_request], [conn_idle_closed]) go
    through the [count] callback under bare names; the front-end adds
    its prefix ([server.] or [router.]).  The loop and the reads run on
    the calling domain; {!send}, {!admit}, {!finish} and {!inflight} may
    be called from any domain. *)

type addr =
  | Unix_sock of string  (** path of a Unix-domain socket (created) *)
  | Tcp of string * int  (** opt-in TCP, e.g. ("127.0.0.1", 7227) *)

val addr_to_string : addr -> string

(** One accepted client connection. *)
type conn

(** Connection serial, from 1 in accept order. *)
val cid : conn -> int

(** ["unix"] or ["host:port"]. *)
val peer : conn -> string

(** Frames read on this connection so far, the current one included. *)
val frames : conn -> int

(** Requests admitted on this connection and not yet finished. *)
val inflight : conn -> int

(** Count one admitted request against the connection. *)
val admit : conn -> unit

(** Settle one admitted request; closes the connection when the peer
    has hung up and nothing is left in flight. *)
val finish : conn -> unit

type t

(** [create ~name ~verbose ~fp ~count addr] binds and listens on [addr]
    (a stale Unix socket file is replaced) and ignores SIGPIPE.
    [read_deadline_s] and [idle_timeout_s] arm the sweep; both default
    to off.  When [drain_flag] is given, SIGTERM and SIGINT set it.
    [name] prefixes {!say}'s lines ([scanatpg <name>: …]). *)
val create :
  ?drain_flag:bool Atomic.t ->
  ?read_deadline_s:float ->
  ?idle_timeout_s:float ->
  name:string ->
  verbose:bool ->
  fp:Obs.Failpoint.t ->
  count:(string -> unit) ->
  addr ->
  t

(** Lifecycle message on stderr when [verbose]. *)
val say : t -> ('a, unit, string, unit) format4 -> 'a

(** Write one response frame (see above); a no-op on a closed
    connection. *)
val send : t -> conn -> string -> unit

(** Outcome of {!read_frames}. *)
type reading =
  | Open  (** still connected; every complete frame was handed over *)
  | Eof  (** the peer hung up (or reset) *)
  | Too_large of string  (** oversized length prefix; the message *)

(** [read_frames t fd dec on_frame] reads what is available on [fd]
    into [dec] and hands each complete frame to [on_frame].  Loop domain
    only; also used for the router's shard connections. *)
val read_frames :
  t -> Unix.file_descr -> Protocol.decoder -> (string -> unit) -> reading

(** [wait timeout handlers] blocks up to [timeout] seconds for any of
    the descriptors to become readable, then runs the handlers of the
    ready ones in list order.  An interrupted wait runs none. *)
val wait : float -> (Unix.file_descr * (unit -> unit)) list -> unit

(** [serve t ~stop on_frame] runs the loop until [stop ()] holds: each
    tick runs [tick], waits up to 100 ms on the listener, the [extra]
    descriptors and every connection, accepts, runs the ready [extra]
    handlers, reads client frames into [on_frame], then sweeps. *)
val serve :
  t ->
  ?extra:(unit -> (Unix.file_descr * (unit -> unit)) list) ->
  ?tick:(unit -> unit) ->
  stop:(unit -> bool) ->
  (conn -> string -> unit) ->
  unit

(** Close the listener: no further connections are accepted. *)
val stop_listening : t -> unit

(** Close every connection and unlink the Unix socket path. *)
val close_all : t -> unit
