(* The durable session that `infer` and `serve` share: fresh-run
   hygiene, recovery from torn logs, the guard timeline after a
   restore, and the events-log line parser recovery reads back with. *)
open Rfid_model
module Session = Rfid_robust.Session
module Ingest = Rfid_robust.Ingest
module Engine = Rfid_core.Engine
module Event = Rfid_core.Event

let num_objects = 6

let scenario =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects () in
     let trace =
       Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
         ~object_locs:wh.Rfid_sim.Warehouse.object_locs
         ~start:(Rfid_sim.Warehouse.reader_start wh)
         ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:2)
         ~config:(Rfid_sim.Trace_gen.default_config ())
         (Rfid_prob.Rng.create ~seed:61)
     in
     (* NaN fixes every 9th epoch, so the WAL carries Degraded entries. *)
     let stream =
       List.map
         (fun (o : Types.observation) ->
           if o.Types.o_epoch mod 9 = 4 then
             { o with Types.o_reported_loc = Util.vec3 Float.nan 0. 0. }
           else o)
         (Trace.observations trace)
     in
     (wh, trace, stream))

let config =
  Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
    ~num_reader_particles:25 ~num_object_particles:30 ()

let fresh () =
  let wh, trace, _ = Lazy.force scenario in
  Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default ~config
    ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~num_objects ~seed:19 ()

let restore snapshot =
  let wh, _, _ = Lazy.force scenario in
  Engine.restore ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default ~config
    snapshot

let new_guard () = Ingest.create ~max_object_id:num_objects ()

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let with_dir f =
  let dir = Filename.temp_file "rfid_session" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Filename.concat dir))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let chop path n =
  let data = read_file path in
  Unix.truncate path (String.length data - n)

let open_exn ?(guard = new_guard ()) ~mode ?checkpoint ?checkpoint_keep ?wal ?events () =
  match
    Session.open_ ~mode ?checkpoint ?checkpoint_keep ?wal ~wal_fsync_every:2 ?events
      ~fresh ~restore ~guard ()
  with
  | Ok s -> (s, guard)
  | Error msg -> Alcotest.fail msg

(* Feed the stream past the engine's epoch up to [upto] (all of it and
   an end-of-stream flush by default), checkpointing every 5 admitted
   epochs and before the flush, as `infer` does. *)
let drive ?upto (session, guard) =
  let _, _, stream = Lazy.force scenario in
  let engine = Session.engine session in
  let start = Engine.epoch engine in
  let admitted = ref 0 in
  List.iter
    (fun (o : Types.observation) ->
      let e = o.Types.o_epoch in
      if e > start && match upto with Some u -> e <= u | None -> true then
        match Ingest.step_engine guard engine o with
        | Error (_, msg) -> Alcotest.fail msg
        | Ok evs ->
            Session.on_events session evs;
            incr admitted;
            if !admitted mod 5 = 0 then Session.checkpoint session)
    stream;
  if upto = None then begin
    Session.checkpoint session;
    let flushed = Engine.flush engine in
    Session.on_flush_mark session;
    Session.on_events session flushed
  end;
  Session.close session

let open_durable ~mode p =
  open_exn ~mode ~checkpoint:(p "ck") ~checkpoint_keep:3 ~wal:(p "wal.log")
    ~events:(p "events.log") ()

let test_fresh_hygiene () =
  with_dir (fun p ->
      (* A previous run's checkpoints, newer than anything a fresh run
         writes for a while, in both rotation and single-file form. *)
      let stale = open_durable ~mode:Session.Fresh p in
      drive stale;
      let single, _ = open_exn ~mode:Session.Fresh ~checkpoint:(p "one.ckpt") () in
      Session.checkpoint single;
      Session.close single;
      Out_channel.with_open_bin (p "one.ckpt.tmp") (fun oc -> output_string oc "torn");
      let loads path = Result.is_ok (Rfid_robust.Checkpoint.load_auto ~path) in
      Alcotest.(check bool) "stale rotation present" true (loads (p "ck"));
      let s, _ = open_durable ~mode:Session.Fresh p in
      Session.close s;
      Alcotest.(check bool) "rotation cleared" false (loads (p "ck"));
      Alcotest.(check (list string)) "no checkpoint files left" []
        (Array.to_list (Sys.readdir (p "ck")));
      let s, _ = open_exn ~mode:Session.Fresh ~checkpoint:(p "one.ckpt") () in
      Session.close s;
      Alcotest.(check bool) "single file removed" false (Sys.file_exists (p "one.ckpt"));
      Alcotest.(check bool) "temp file removed" false (Sys.file_exists (p "one.ckpt.tmp")))

let test_torn_recovery () =
  let _, _, stream = Lazy.force scenario in
  let last = List.fold_left (fun m (o : Types.observation) -> max m o.Types.o_epoch) 0 stream in
  with_dir (fun golden ->
      drive (open_durable ~mode:Session.Fresh golden);
      let expected = read_file (golden "events.log") in
      with_dir (fun p ->
          (* Crash 3/5 of the way in, two epochs past a checkpoint (one
             every 5 admitted, from epoch 0), with the last event line
             and the last WAL record torn mid-write. *)
          drive ~upto:((5 * (last * 3 / 25)) + 1) (open_durable ~mode:Session.Fresh p);
          Alcotest.(check bool) "events log has a line to tear" true
            (String.length (read_file (p "events.log")) > 10);
          chop (p "events.log") 7;
          chop (p "wal.log") 5;
          let checkpointed =
            match Rfid_robust.Checkpoint.load_auto ~path:(p "ck") with
            | Ok snapshot -> Engine.snapshot_epoch snapshot
            | Error msg -> Alcotest.fail msg
          in
          let ((session, _) as recovered) = open_durable ~mode:Session.Recover p in
          Alcotest.(check int) "WAL replayed past the checkpoint" (checkpointed + 1)
            (Engine.epoch (Session.engine session));
          let logged = Buffer.create 4096 in
          Session.iter_log session (fun ev ->
              Buffer.add_string logged (Format.asprintf "%a\n" Event.pp ev));
          Alcotest.(check string) "iter_log = the trimmed and replayed log"
            (read_file (p "events.log")) (Buffer.contents logged);
          drive recovered;
          Alcotest.(check string) "recovered events log = uninterrupted run's" expected
            (read_file (p "events.log"))))

(* Recovering a run that completed restores its final checkpoint,
   taken before the flush: the trim drops the flush section and the
   re-drive flushes it again, exactly once — also when the crash tore
   a flush event written after that checkpoint. *)
let test_recover_completed () =
  let _, _, stream = Lazy.force scenario in
  let last = List.fold_left (fun m (o : Types.observation) -> max m o.Types.o_epoch) 0 stream in
  with_dir (fun golden ->
      drive (open_durable ~mode:Session.Fresh golden);
      let expected = read_file (golden "events.log") in
      let marker = "# flush\n" in
      let rec flush_section i =
        if i < 0 then Alcotest.fail "no flush marker in the log"
        else if String.sub expected i (String.length marker) = marker then
          String.length expected - i - String.length marker
        else flush_section (i - 1)
      in
      Alcotest.(check bool) "the flush emits events" true
        (flush_section (String.length expected - String.length marker) > 7);
      with_dir (fun p ->
          drive (open_durable ~mode:Session.Fresh p);
          let recover () =
            let ((session, _) as recovered) = open_durable ~mode:Session.Recover p in
            Alcotest.(check int) "restored the final checkpoint" last
              (Engine.epoch (Session.engine session));
            drive recovered;
            Alcotest.(check string) "recovered events log = uninterrupted run's" expected
              (read_file (p "events.log"))
          in
          recover ();
          chop (p "events.log") 7;
          recover ()))

(* After a restore the guard starts at the restored epoch, whichever
   way the session was opened: the restored epoch again is a
   duplicate, an earlier one is out of order. *)
let test_timeline mode () =
  let _, _, stream = Lazy.force scenario in
  with_dir (fun p ->
      drive ~upto:20 (open_exn ~mode:Session.Fresh ~checkpoint:(p "ck") ());
      let mode = match mode with `Resume -> Session.Resume (p "ck") | `Recover -> Session.Recover in
      let session, guard = open_exn ~mode ~checkpoint:(p "ck") () in
      let e0 = Engine.epoch (Session.engine session) in
      Session.close session;
      Alcotest.(check bool) "restored past the start" true (e0 > 1);
      let at e = List.find (fun (o : Types.observation) -> o.Types.o_epoch = e) stream in
      ignore (Ingest.admit guard (at e0));
      ignore (Ingest.admit guard (at (e0 - 1)));
      Alcotest.(check int) "duplicate-epoch" 1 (Ingest.count guard Ingest.Duplicate_epoch);
      Alcotest.(check int) "out-of-order-epoch" 1
        (Ingest.count guard Ingest.Out_of_order_epoch))

let test_recover_needs_checkpoint () =
  match Session.open_ ~mode:Session.Recover ~fresh ~restore ~guard:(new_guard ()) () with
  | Ok _ -> Alcotest.fail "Recover without a checkpoint path opened"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Events-log lines                                                    *)

let event_gen =
  let open QCheck.Gen in
  let coord = float_range (-500.) 500. in
  let cov =
    opt
      (map2
         (fun a b -> [| [| a; 0.1; 0. |]; [| 0.1; b; 0. |]; [| 0.; 0.; 1. |] |])
         (float_range 0. 50.) (float_range 0. 50.))
  in
  map
    (fun (((epoch, obj), (x, y, z)), (cov, degraded)) ->
      Event.make ~epoch ~obj ~loc:(Rfid_geom.Vec3.make x y z) ?cov ~degraded ())
    (pair
       (pair (pair (int_bound 100_000) (int_bound 10_000)) (triple coord coord coord))
       (pair cov bool))

let test_log_line_roundtrip =
  Util.qcheck ~count:500 "pp (of_log_line (pp ev)) = pp ev"
    (QCheck.make ~print:(Format.asprintf "%a" Event.pp) event_gen)
    (fun ev ->
      let line = Format.asprintf "%a" Event.pp ev in
      match Event.of_log_line line with
      | Some back -> Format.asprintf "%a" Event.pp back = line
      | None -> false)

let test_log_line_rejects () =
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "%S is not an event" line) true
        (Event.of_log_line line = None))
    [
      ""; "   "; "# flush"; "#t=3 obj=1 loc=(1.000, 2.000, 3.000)"; "garbage";
      "t="; "t=3"; "t=3 obj=1"; "t=3 obj=1 loc=(1.000, 2.0"; "obj=1 t=3";
      "t=x obj=1 loc=(1.000, 2.000, 3.000)"; "\x00\xff binary";
    ]

let suite =
  ( "session",
    [
      Alcotest.test_case "fresh open clears stale checkpoints" `Quick test_fresh_hygiene;
      Alcotest.test_case "recovery from torn events log and WAL" `Quick
        test_torn_recovery;
      Alcotest.test_case "recovery after a completed run" `Quick test_recover_completed;
      Alcotest.test_case "resume: guard starts at the restored epoch" `Quick
        (test_timeline `Resume);
      Alcotest.test_case "recover: guard starts at the restored epoch" `Quick
        (test_timeline `Recover);
      Alcotest.test_case "recover without a checkpoint is an error" `Quick
        test_recover_needs_checkpoint;
      test_log_line_roundtrip;
      Alcotest.test_case "non-event lines parse to None" `Quick test_log_line_rejects;
    ] )
