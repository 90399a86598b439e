type counters = {
  mutable dispatched : int;
  mutable committed : int;
  mutable discarded : int;
  mutable revalidated : int;
}

let make () = { dispatched = 0; committed = 0; discarded = 0; revalidated = 0 }

let record c counters =
  Obs.Counters.add counters "compaction.speculative.dispatched" c.dispatched;
  Obs.Counters.add counters "compaction.speculative.committed" c.committed;
  Obs.Counters.add counters "compaction.speculative.discarded" c.discarded;
  Obs.Counters.add counters "compaction.speculative.revalidated" c.revalidated

type adaptive = {
  mutable shrinks : int;
  mutable widens : int;
  mutable trials_saved : int;
  mutable arena_reuses : int;
  mutable replay_skipped : int;
}

let make_adaptive () =
  { shrinks = 0; widens = 0; trials_saved = 0; arena_reuses = 0;
    replay_skipped = 0 }

let record_adaptive a counters =
  Obs.Counters.add counters "compaction.adaptive.shrinks" a.shrinks;
  Obs.Counters.add counters "compaction.adaptive.widens" a.widens;
  Obs.Counters.add counters "compaction.adaptive.trials_saved" a.trials_saved;
  Obs.Counters.add counters "compaction.adaptive.arena_reuses" a.arena_reuses;
  Obs.Counters.add counters "compaction.adaptive.replay_skipped"
    a.replay_skipped
