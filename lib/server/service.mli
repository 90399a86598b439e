(** Request execution against the shared circuit cache.

    One service instance is shared by every worker domain of a daemon.
    [execute] is safe to call concurrently: each request computes on its
    own metrics document (and its own fault-simulation sessions — the
    cached model is immutable after compile), and only the final merge
    into the shared metrics document takes the service lock.

    Determinism contract (mirrors the repo-wide convention, DESIGN.md
    §10): a compute response payload ([generate], [compact], [table],
    [ping]) is a pure function of the request — it carries no wall-clock
    readings, no cache-hit flags and no jobs-dependent counters (the
    [compaction.speculative.*] and [compaction.adaptive.*] families are
    filtered out), so replaying the same request yields byte-identical
    payloads at any [--server-jobs], any [sim_jobs]/[compact_jobs], and
    across daemon restarts.  [stats] is the deliberate exception: it snapshots
    live server state and is excluded from byte-identity comparisons. *)

type t

(** [failpoint] (default {!Obs.Failpoint.null}) is the registry consulted
    by the [cache.compile] injection site and reconfigured by the [chaos]
    op; the daemon passes its live registry here. *)
val create :
  ?cache_capacity:int ->
  ?default_scale:Circuits.Profiles.scale ->
  ?failpoint:Obs.Failpoint.t ->
  unit ->
  t

val cache : t -> Cache.t

(** Per-request accounting of one {!execute} call, for the access log. *)
type meta = {
  status : string;  (** ok | degraded | error | internal_error *)
  op : string;
  circuit : string;  (** circuit name, or ["-"] for admin ops *)
  cache : string;  (** hit | miss | - *)
}

(** [execute t ~budget ?trace req] runs the request to completion and
    returns the response payload.  Never raises — malformed circuits,
    parse errors and internal failures all map to typed error payloads
    (unexpected exceptions to status [internal_error]) — with one
    deliberate exception: an injected {!Obs.Failpoint.Crashed} escapes,
    modelling a worker death for the daemon's containment layer.
    [trace] (default {!Obs.Trace.null}) receives the request's phase
    spans ([generate], [compact], the [flow.*] stages, …); the daemon
    passes a per-request collector here and folds it into its global one
    afterwards.  Trace spans never influence the response payload.
    Parallel simulation and compaction run on the process-wide {!Par}
    pool, which concurrent [execute] calls share. *)
val execute :
  t -> budget:Obs.Budget.t -> ?trace:Obs.Trace.t -> Protocol.request ->
  string * meta

(** [bump t name n] adds to a shared server counter (thread-safe) — the
    daemon's [server.accepted] / [server.rejected] / [server.inflight]
    accounting. *)
val bump : t -> string -> int -> unit

(** [observe t name v] records one observation into the shared metrics
    histogram [name] (thread-safe) — the daemon's queue-wait / service /
    end-to-end latency accounting. *)
val observe : t -> string -> int -> unit

(** Snapshot of the shared metrics document (thread-safe copy). *)
val metrics_snapshot : t -> Obs.Metrics.t
