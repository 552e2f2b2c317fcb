(** A durable inference session: the one home of the crash-recovery
    protocol that [rfid_clean infer] and [rfid_clean serve] share.

    A session owns an engine plus up to three durable files — a
    checkpoint (file or rotation directory), a write-ahead log
    ({!Wal}) and an events log of {!Rfid_core.Event.pp} lines — and
    keeps them mutually consistent at every byte:

    - {!open_} restores or creates the engine, advances the caller's
      ingest guard to the restored epoch, and on [Recover] trims the
      events log to complete lines the checkpoint covers, reads the
      WAL once, truncates its torn tail and replays the entries past
      the checkpoint — before the journal is attached, so replayed
      entries are not logged twice;
    - {!on_events} / {!on_flush_mark} append to the events log;
    - {!checkpoint} fsyncs the WAL and events log before publishing,
      so a completed checkpoint implies everything it covers is on
      disk;
    - {!close} syncs and closes both logs. *)

type mode =
  | Fresh
      (** start from scratch: truncate both logs and delete stale
          checkpoints, which would otherwise shadow this run's on a
          later recovery *)
  | Resume of string
      (** restore from a checkpoint file or rotation directory; the
          logs restart empty *)
  | Recover
      (** restore the newest valid checkpoint under [checkpoint] — or
          start fresh if none loads, the crash having come before the
          first one was durable — then trim and replay the logs *)

type t

val open_ :
  mode:mode ->
  ?checkpoint:string ->
  ?checkpoint_keep:int ->
  ?wal:string ->
  ?wal_fsync_every:int ->
  ?events:string ->
  fresh:(unit -> Rfid_core.Engine.t) ->
  restore:(Rfid_core.Engine.snapshot -> Rfid_core.Engine.t) ->
  guard:Ingest.t ->
  unit ->
  (t, string) result
(** [checkpoint_keep] > 1 (default 1) makes [checkpoint] a rotation
    directory. [Error] when [Recover] has no [checkpoint] path, when
    [Resume]'s checkpoint does not load, or when a WAL entry halts the
    guard on replay. Progress notes go to stderr.
    @raise Sys_error if a durable file cannot be opened. *)

val engine : t -> Rfid_core.Engine.t

val replayed : t -> Rfid_core.Event.t list
(** Events regenerated by WAL replay during {!open_}, already appended
    to the events log. *)

val iter_log : t -> (Rfid_core.Event.t -> unit) -> unit
(** [iter_log t f] reads the events log from its start and applies [f]
    to each event line in it, oldest first, streaming (no-op without
    an events log). Right after a [Recover] open that is the kept
    prefix plus {!replayed}; after the other modes the log is empty. *)

val on_events : t -> Rfid_core.Event.t list -> unit
val on_flush_mark : t -> unit
(** Append the ["# flush"] marker that separates end-of-stream flush
    events, which share the final step's epoch, from step events;
    recovery's trim stops at it. A run ends with {!checkpoint}, then
    the engine's flush, this marker and the flush events: recovering
    from that checkpoint restores the pending reports, so the next
    flush regenerates the events the trim removed. *)

val checkpoint : t -> unit
(** Fsync the WAL and events log, then save a checkpoint of the
    engine. No-op without a [checkpoint] path. *)

val close : t -> unit
(** Sync and close the logs. With a WAL, print [# durable-bytes=N] on
    stderr; the crash-test harness reads it to bound its kill
    offsets. *)
