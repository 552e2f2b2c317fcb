module Engine = Rfid_core.Engine
module Event = Rfid_core.Event

type mode = Fresh | Resume of string | Recover

type t = {
  engine : Engine.t;
  checkpoint : string option;
  keep : int;
  wal : Wal.writer option;
  events : string option;
  events_fd : Unix.file_descr option;
  replayed : Event.t list;
}

let engine t = t.engine
let replayed t = t.replayed

let write_events fd evs =
  List.iter (fun ev -> Durable.write fd (Format.asprintf "%a\n" Event.pp ev)) evs

let on_events t evs = Option.iter (fun fd -> write_events fd evs) t.events_fd
let on_flush_mark t = Option.iter (fun fd -> Durable.write fd "# flush\n") t.events_fd

(* Chop the events log back to the complete lines covered by the
   restored checkpoint (epoch <= [epoch]), streaming it line by line.
   Everything past that — a line torn mid-write, the "# flush" marker
   (which fails the epoch parse) and the flush events behind it,
   anything newer than the checkpoint — is regenerated by WAL replay
   and the continued run. *)
let trim_events ~path ~epoch =
  match In_channel.open_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      let len = Int64.to_int (In_channel.length ic) in
      let covered line =
        match Scanf.sscanf line "t=%d" Fun.id with
        | e -> e <= epoch
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false
      in
      (* [keep + String.length line < len]: the line has its newline. *)
      let rec go keep =
        match In_channel.input_line ic with
        | Some line when keep + String.length line < len && covered line ->
            go (keep + String.length line + 1)
        | Some _ | None -> keep
      in
      let keep = Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () -> go 0) in
      if keep <> len then Unix.truncate path keep

let load_engine ~mode ~checkpoint ~fresh ~restore =
  let load path =
    Result.map
      (fun snapshot ->
        Format.eprintf "# resuming from %s at epoch %d@." path
          (Engine.snapshot_epoch snapshot);
        restore snapshot)
      (Checkpoint.load_auto ~path)
  in
  match (mode, checkpoint) with
  | Fresh, _ -> Ok (fresh ())
  | Resume path, _ -> load path
  | Recover, None -> Error "recovery needs a checkpoint path (--checkpoint) to load from"
  | Recover, Some path -> (
      match load path with
      | Ok _ as ok -> ok
      | Error msg ->
          Format.eprintf "# no loadable checkpoint (%s); recovering from the start@." msg;
          Ok (fresh ()))

let open_ ~mode ?checkpoint ?(checkpoint_keep = 1) ?wal ?wal_fsync_every ?events ~fresh
    ~restore ~guard () =
  match load_engine ~mode ~checkpoint ~fresh ~restore with
  | Error _ as e -> e
  | Ok engine -> (
      let recovering = mode = Recover in
      Ingest.advance_timeline guard (Engine.epoch engine);
      (match (mode, checkpoint) with
      | Fresh, Some path ->
          if checkpoint_keep > 1 then Checkpoint.clear_rotation ~dir:path
          else
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ path; path ^ ".tmp" ]
      | _ -> ());
      (* Trim both logs to a consistent prefix before anything reopens
         them for append; the WAL is read once, here. *)
      (match events with
      | Some path when recovering -> trim_events ~path ~epoch:(Engine.epoch engine)
      | _ -> ());
      let entries =
        match wal with
        | Some path when recovering ->
            let tail = Wal.read ~path in
            Option.iter
              (fun why ->
                Format.eprintf "# wal: %s; discarding %d byte(s) of torn tail@." why
                  tail.Wal.discarded_bytes)
              tail.Wal.note;
            Wal.truncate ~path ~valid_bytes:tail.Wal.valid_bytes;
            tail.Wal.entries
        | _ -> []
      in
      let events_fd =
        Option.map
          (fun path ->
            let start = if recovering then Unix.O_APPEND else Unix.O_TRUNC in
            try Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; start ] 0o644
            with Unix.Unix_error (e, _, _) ->
              raise (Sys_error (path ^ ": " ^ Unix.error_message e)))
          events
      in
      (* Replay regenerates the lost epochs' events bit-identically: the
         inputs equal the originals and the checkpoint restored the RNG
         streams. The journal is attached only afterwards, so replayed
         entries are not logged twice. *)
      match Wal.replay ~guard ~engine entries with
      | Error _ as e ->
          Option.iter Unix.close events_fd;
          e
      | Ok replayed ->
          if replayed <> [] || entries <> [] then
            Format.eprintf "# wal: replayed %d entr(ies) to epoch %d@."
              (List.length entries) (Engine.epoch engine);
          Option.iter (fun fd -> write_events fd replayed) events_fd;
          let wal =
            Option.map
              (fun path ->
                Wal.create_writer ~append:recovering ?fsync_every:wal_fsync_every ~path ())
              wal
          in
          Option.iter
            (fun w ->
              Engine.set_journal engine
                (Some
                   (function
                   | Engine.Journal_step o -> Wal.append w (Wal.Step o)
                   | Engine.Journal_degraded (e, tags) -> Wal.append w (Wal.Degraded (e, tags)))))
            wal;
          Ok
            {
              engine;
              checkpoint;
              keep = checkpoint_keep;
              wal;
              events;
              events_fd;
              replayed;
            })

let iter_log t f =
  Option.iter
    (fun path ->
      In_channel.with_open_bin path (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> ()
            | Some line ->
                Option.iter f (Event.of_log_line line);
                go ()
          in
          go ()))
    t.events

let checkpoint t =
  Option.iter
    (fun path ->
      (* Durability barrier: the WAL records and event lines the
         checkpoint covers reach disk before it is published. *)
      Option.iter Wal.sync t.wal;
      Option.iter Durable.fsync t.events_fd;
      let snapshot = Engine.snapshot t.engine in
      if t.keep > 1 then Checkpoint.save_rotating ~dir:path ~keep:t.keep snapshot
      else Checkpoint.save ~path snapshot)
    t.checkpoint

let close t =
  Engine.set_journal t.engine None;
  Option.iter Wal.close t.wal;
  Option.iter
    (fun fd ->
      (try Durable.fsync fd with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    t.events_fd;
  if t.wal <> None then
    Printf.eprintf "# durable-bytes=%d\n%!" (Durable.total_written ())
