(** Sharding front-end router (DESIGN.md §15): a handler on the
    connection layer ({!Server.Conn}) that answers admin ops itself and
    routes every compute request to one of [shards] backend daemons it
    spawns and supervises.  It passes no read deadline or idle timeout
    to the layer.

    Shard selection hashes the request's circuit content with the key
    the compiled-circuit cache uses ({!Server.Cache.key_of}), so a
    circuit's requests pin to one shard and keep its LRU slice hot.  In
    front of dispatch sits a content-addressed result cache
    ({!Result_cache}), keyed on the canonical request with the
    parallelism knobs dropped; [stats], [chaos], [ping] and [shutdown]
    bypass it.

    Supervision: a shard that exits, hangs past its health-probe
    timeout, or drops its connection is killed, its in-flight requests
    are requeued (a bounded attempts cap turns a crash-looping request
    into a typed [internal_error]), and it is respawned with exponential
    backoff, reset once a [stats] health probe round-trips.

    Drain (SIGTERM, SIGINT or a [shutdown] request): the listener
    closes, in-flight requests run down inside [drain_grace_s] (typed
    [internal_error] past it), then a shutdown frame fans out to every
    shard and every shard process is collected before [run] returns.

    Failpoint sites (armed via [chaos] or the chaos op): [shard] kills
    the dispatch target's process; [accept] and [writer] are the
    connection layer's, on client connections. *)

type config = {
  addr : Server.Conn.addr;  (** front-end listen address *)
  shards : int;
  shard_socket : int -> string;  (** Unix socket path of shard [i] *)
  launcher : Shard.launcher;
  result_cache_capacity : int;
  max_inflight : int;  (** per client connection, as the daemon's *)
  backlog_depth : int;
      (** queued-behind-a-down-shard bound; beyond it requests get a
          typed [overloaded] rejection *)
  dispatch_attempts : int;  (** delivery cap per request across restarts *)
  restart_backoff_ms : int;
  restart_backoff_max_ms : int;
  connect_timeout_s : float;  (** spawn-to-connectable deadline *)
  health_period_s : float;
  health_timeout_s : float;
  drain_grace_s : float;
  chaos : string option;  (** initial failpoint spec (sites above) *)
  metrics_path : string option;  (** router metrics document, at drain *)
  install_signals : bool;
  verbose : bool;
}

(** Defaults mirror the daemon's where a knob exists on both sides;
    shard sockets derive from the router address ([<path>.shard<i>]). *)
val default_config :
  Server.Conn.addr -> shards:int -> launcher:Shard.launcher -> config

(** [run config] routes until drained; returns the process exit code
    (0 after a clean fanned-out drain).  Blocks the calling domain.
    @raise Invalid_argument on a malformed [chaos] spec. *)
val run : config -> int
