(* The three workloads. Each returns its metrics as (name, value)
   pairs; every check along the way is counted in [Util.tally].

   clean_replay  batch [rfid_clean replay] of a 4-pass trace: the engine
                 and its index carry the load.
   serve_ingest  durable [serve --recover], then pipelined PUT/SYNC:
                 framing, admission, guard, engine, WAL, checkpoint and
                 event log carry the load.
   serve_query   [serve --recover] over a fully populated 1000-object
                 posterior, then an open-loop RANGE/NEAR/AT mix beside a
                 low-rate writer: query maintenance, the dynamic index,
                 reply rendering and the select loop carry the load.

   Every run reports every end-to-end metric. Where a path is not the
   workload's subject, a short fixed probe measures it (see README.md),
   so an optimisation aimed elsewhere predicts no change there. *)

module Trace = Rfid_model.Trace
module Trace_io = Rfid_model.Trace_io
module Types = Rfid_model.Types
open Util

type ctx = {
  cli : string;
  scratch : string;
  seed : int;
  seconds : float;
  trace : bool;  (* per-layer metrics of a traced in-process replay *)
  spans : string;  (* where the traced run writes its spans ("" = nowhere) *)
}

let ms s = s *. 1e3
let us s = s *. 1e6
let mb_of_kb kb = float_of_int kb /. 1024.

(* Query probe of the workloads whose subject is not reads: a fixed
   rate for a fixed time, enough for >= 1000 samples per verb. *)
let probe_rate = 1000.
let probe_s = 4.0

(* Object ids read at least once in the first [n] observations. *)
let known_ids (obs : Types.observation array) n =
  let seen = Hashtbl.create 256 in
  for i = 0 to Int.min n (Array.length obs) - 1 do
    List.iter
      (function Types.Object_tag id -> Hashtbl.replace seen id () | Types.Shelf_tag _ -> ())
      obs.(i).Types.o_read_tags
  done;
  let a = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort compare a;
  a

(* In-process Core fed [lines.(0 .. n-1)] uninterrupted, with a SYNC
   every batch as the load generator sends them; returns the
   verification replies and the durable events log it would write. *)
let serve_reference ~(fx : Srv.fixture) ~lines ~n ~queries =
  phase "in-process reference";
  let log = Buffer.create 65536 in
  let core = Fixture.core ~objects:fx.Srv.objects ~variant:fx.Srv.variant ~log in
  let handle l = fst (Rfid_serve.Core.handle_line core l) in
  for i = 0 to n - 1 do
    ignore (handle ("PUT " ^ lines.(i)));
    if (i + 1) mod Load.batch = 0 then ignore (handle "SYNC")
  done;
  ignore (handle "SYNC");
  let replies = List.map (fun q -> (q, handle q)) queries in
  ignore (handle "DRAIN");
  (replies, Buffer.contents log)

(* A fresh durable server fed [lines.(0 .. n-1)] with a checkpoint every
   [checkpoint_every] epochs, then SIGKILLed: the state every
   [--recover] start of the run resumes from. *)
let prepare ~ctx (fx : Srv.fixture) ~lines ~n ~checkpoint_every =
  phase "prepare recovery state";
  let dir = Filename.concat ctx.scratch "prep" in
  Unix.mkdir dir 0o755;
  let s = Srv.start ~checkpoint_every ~cli:ctx.cli fx ~dir ~recover:false in
  let st = Load.new_stats () in
  let acked, _ = Load.burst st s.Srv.conn (Array.sub lines 0 n) ~from:0 in
  check (acked = n) "prep fed %d of %d epochs" acked n;
  Srv.kill s;
  Util.rm_rf (Filename.concat dir "server.err");
  dir

(* Before a read phase: a pause for the writes' aftermath (the kernel
   writing back the checkpoints just saved), then one untimed query,
   since the first read after a run of writes pays the maintenance of
   every object those writes moved. *)
let warm conn =
  Unix.sleepf 0.3;
  check (Load.is_ok (Client.request conn "NEAR 1 0 0")) "warm-up query"

let lat_metrics st =
  List.concat_map
    (fun (verb, name) ->
      let l = Load.samples st verb in
      [
        (name ^ "_p50_us", us (Load.segmented_quantile ~segments:8 l 0.5));
        (name ^ "_p99_us", us (Load.segmented_quantile l 0.99));
      ])
    [ ("RANGE", "range"); ("NEAR", "near"); ("AT", "at") ]

let lag_metrics st =
  [
    ("sync_lag_p50_ms", ms (Load.segmented_quantile ~segments:8 !(st.Load.lags) 0.5));
    ("sync_lag_p99_ms", ms (Load.segmented_quantile !(st.Load.lags) 0.99));
  ]

let events_of_log text = List.filter_map Fixture.event_of_log_line (lines text)

(* ------------------------------------------------------------------ *)
(* clean_replay                                                        *)

let replay_objects = 200
let replay_rounds = 4
let replay_variant = Rfid_core.Config.Factorized_indexed
let setup_group = 8

(* Whole replays, fixed per run: one per 6 s of --seconds (a replay
   takes about 9 s on a 2-core Xeon VM). *)
let replays ctx = Int.max 1 (int_of_float (ctx.seconds /. 6.))

let replay_args file =
  [ "replay"; "-i"; file; "-n"; string_of_int replay_objects; "--variant"; "indexed"; "-j"; "1" ]

(* The serving probe of clean_replay: a fresh server over the same
   200-object fixture fed two passes of a second, independent scan
   (from a seed derived from the run's) as PUT batches (the lag), then
   a read-only query probe. The events it emitted (EVENTS 0) give the
   accuracy on that second scan. *)
let replay_probe ~ctx =
  let fx =
    { Srv.objects = replay_objects; variant = replay_variant; checkpoint_every = 0; wal_fsync_every = 1 }
  in
  let trace = Fixture.scan ~objects:replay_objects ~rounds:2 ~seed:(ctx.seed + 1_000_000) in
  let obs = Array.of_list (Trace.observations trace) in
  let lines = Array.map Trace_io.observation_to_line obs in
  let n = Array.length lines in
  let dir = Filename.concat ctx.scratch "probe" in
  Unix.mkdir dir 0o755;
  let s = Srv.start ~cli:ctx.cli fx ~dir ~recover:false in
  let st = Load.new_stats () in
  let acked, _ = Load.burst st s.Srv.conn lines ~from:0 in
  check (acked = n) "probe fed %d of %d epochs" acked n;
  warm s.Srv.conn;
  let qst = Load.new_stats () in
  let mix = Load.query_mix ~objects:replay_objects ~known:(known_ids obs n) ~seed:ctx.seed ~n:3000 in
  ignore
    (Load.open_loop qst ~writer:None
       ~reader:(Some { Load.r_conn = s.Srv.conn; r_rate = probe_rate; r_queries = mix })
       ~duration:probe_s);
  let queries =
    Fixture.verification_set ~objects:replay_objects ~last_epoch:(n - 1) ~seed:ctx.seed @ [ "EVENTS 0" ]
  in
  let live = Srv.verify s.Srv.conn queries in
  Srv.stop s;
  let reference, _ = serve_reference ~fx ~lines ~n ~queries in
  Srv.compare_replies ~what:"probe" live reference;
  let err = Fixture.err_xy_ft (events_of_log (List.assoc "EVENTS 0" live)) trace in
  (err, lag_metrics st @ lat_metrics qst, [ st; qst ])

let clean_replay ctx =
  let trace = Fixture.scan ~objects:replay_objects ~rounds:replay_rounds ~seed:ctx.seed in
  let observations = Trace.observations trace in
  let file = Filename.concat ctx.scratch "trace.csv" in
  let head = Filename.concat ctx.scratch "head.csv" in
  let write path obs =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace_io.write_observations oc obs)
  in
  write file observations;
  write head [ List.hd observations ];
  let out = Filename.concat ctx.scratch "replay.out" and err = Filename.concat ctx.scratch "replay.err" in
  let probe () =
    phase "serving probe";
    replay_probe ~ctx
  in
  if ctx.trace then begin
    (* One binary replay: the output the traced replay must reproduce. *)
    phase "binary replay";
    let _, st = Proc.run ~exe:ctx.cli ~args:(replay_args file) ~stdout_to:out ~stderr_to:err in
    check (st = Unix.WEXITED 0) "replay (%s)" (Proc.pp_status st);
    let _, socket_metrics, socket = probe () in
    phase "in-process replays";
    Traced.clean_replay ~spans:ctx.spans ~objects:replay_objects ~variant:replay_variant ~file
      ~binary_out:(read_file out) ~socket ~socket_metrics
  end
  else
  let expected_head = Fixture.replay_reference ~objects:replay_objects ~variant:replay_variant ~file:head in
  phase "in-process reference";
  let expected = Fixture.replay_reference ~objects:replay_objects ~variant:replay_variant ~file in
  phase "measure";
  let spawn_group () =
    List.init setup_group (fun _ ->
        let dt, st = Proc.run ~exe:ctx.cli ~args:(replay_args head) ~stdout_to:out ~stderr_to:err in
        check
          (st = Unix.WEXITED 0 && read_file out = expected_head)
          "setup replay (%s)" (Proc.pp_status st);
        dt)
  in
  let groups = ref [ spawn_group () ] in
  Host.sample "setup";
  let walls = ref [] and rss = ref 0 and last_out = ref "" in
  for _ = 1 to replays ctx do
    let dt, st, hwm = Proc.run_sampled ~exe:ctx.cli ~args:(replay_args file) ~stdout_to:out ~stderr_to:err in
    last_out := read_file out;
    check
      (st = Unix.WEXITED 0 && !last_out = expected)
      "replay output differs from the in-process Engine.run (%s)" (Proc.pp_status st);
    walls := dt :: !walls;
    rss := Int.max !rss hwm;
    groups := spawn_group () :: !groups
  done;
  Host.sample "measured";
  let epochs = List.length observations * List.length !walls in
  let events =
    List.filter_map Fixture.event_of_csv_line (lines !last_out)
  in
  let probe_err, probe, _ = probe () in
  [
    ("setup_s", median_of_means !groups);
    ("epochs_per_s", float_of_int epochs /. List.fold_left ( +. ) 0. !walls);
    (* The mean of the two scans' errors: accuracy varies more from
       scan to scan than within one, so a second, independent scan
       narrows its spread across seeds. *)
    ("err_xy_ft", (Fixture.err_xy_ft events trace +. probe_err) /. 2.);
    ("rss_peak_mb", mb_of_kb !rss);
  ]
  @ probe

(* ------------------------------------------------------------------ *)
(* serve_ingest and serve_query                                        *)

type serve_wl = {
  fx : Srv.fixture;
  rounds : int;
  prep_checkpoint : int;  (* the recovery state: a checkpoint at this epoch... *)
  tail : int;  (* ...plus a WAL tail of this many epochs, replayed at every start *)
  spawns_before : int;
  spawns_after : int;
}

let prep_epochs wl = wl.prep_checkpoint + wl.tail

let ingest_wl =
  {
    fx =
      {
        Srv.objects = 500;
        variant = Rfid_core.Config.Factorized_indexed;
        checkpoint_every = 500;
        wal_fsync_every = 32;
      };
    rounds = 3;
    prep_checkpoint = 1000;
    tail = 500;
    spawns_before = 3;
    spawns_after = 2;
  }

let query_wl =
  {
    fx =
      {
        Srv.objects = 1000;
        variant = Rfid_core.Config.Factorized_compressed;
        checkpoint_every = 5000;
        wal_fsync_every = 1000;
      };
    rounds = 8;
    prep_checkpoint = 5000;
    tail = 2000;
    spawns_before = 3;
    spawns_after = 2;
  }

(* Work is fixed per run, not time: a faster program finishes sooner
   but never carries more state. serve_ingest feeds
   [ingest_epochs_per_s] x --seconds epochs (about --seconds of work on
   a 2-core Xeon VM); serve_query offers its open-loop mix for
   --seconds between two [query_burst]-epoch PUT bursts. *)
let ingest_epochs_per_s = 400
let query_burst = 12000
let writer_rate = 40.
let reader_rate = 1500.

type served = {
  setup : float list;
  server_metrics : (string * float) list;
  fed : int;  (* epochs fed in total, prep included *)
  live : (string * string) list;  (* verification queries and replies *)
  log : string;
  rss_kb : int;
  prep : string;
  chunks : string list list;  (* with --trace 1: every request after recovery *)
  socket : Load.stats list;
}

(* Prepare the recovery state, time the [--recover] starts, measure the
   last started server, verify, drain and stop it. With --trace 1 every
   request the recovered server receives is recorded for the traced
   replay. *)
let run_serve ctx wl ~lines ~measure =
  let fx = wl.fx in
  let prep = prepare ~ctx fx ~lines ~n:(prep_epochs wl) ~checkpoint_every:wl.prep_checkpoint in
  let before, server =
    Srv.recover_spawns ~cli:ctx.cli fx ~prep ~scratch:ctx.scratch ~tag:"rec" ~n:wl.spawns_before
      ~keep:true
  in
  let s = Option.get server in
  Host.sample "setup";
  phase "measure";
  Client.recording := ctx.trace;
  let server_metrics, fed, socket = measure s in
  (* Failure injection for the cleanup self-test (selftest.py). *)
  (match Sys.getenv_opt "PERFBENCH_INJECT" with
  | Some "check" -> fail "injected failed check"
  | Some "raise" -> failwith "injected exception"
  | _ -> ());
  let queries = Fixture.verification_set ~objects:fx.Srv.objects ~last_epoch:(fed - 1) ~seed:ctx.seed in
  let live = Srv.verify s.Srv.conn queries in
  let drained = Client.request s.Srv.conn "DRAIN" in
  check (drained = Printf.sprintf "OK %d\n" (fed - 1)) "DRAIN -> %S" drained;
  let chunks = Client.recorded () in
  let rss_kb = Proc.peak_rss_kb s.Srv.pid in
  Host.sample "measured";
  Srv.stop s;
  let log = read_file (Srv.events s.Srv.dir) in
  phase "setup spawns after";
  let after, _ =
    Srv.recover_spawns ~cli:ctx.cli fx ~prep ~scratch:ctx.scratch ~tag:"rec-after"
      ~n:wl.spawns_after ~keep:false
  in
  {
    setup = before @ after;
    server_metrics;
    fed;
    live = live @ [ ("DRAIN", drained) ];
    log;
    rss_kb;
    prep;
    chunks;
    socket;
  }

(* --trace 0: the end-to-end metrics, with the server's replies and
   events log checked against an uninterrupted in-process run.
   --trace 1: the per-layer metrics of the traced replay, checked
   against the same server's replies and log. *)
let serve_result ctx wl ~lines ~trace (r : served) =
  if ctx.trace then
    Traced.serve ~spans:ctx.spans
      {
        Traced.fx = wl.fx;
        prep = r.prep;
        chunks = r.chunks;
        live_tail = List.map snd r.live;
        server_log = r.log;
        socket = r.socket;
        socket_metrics = r.server_metrics;
        scratch = ctx.scratch;
      }
  else begin
    let queries = List.filter (fun q -> q <> "DRAIN") (List.map fst r.live) in
    let reference, ref_log = serve_reference ~fx:wl.fx ~lines ~n:r.fed ~queries in
    Srv.compare_replies ~what:"verification" (List.filter (fun (q, _) -> q <> "DRAIN") r.live) reference;
    check (r.log = ref_log) "events log after kill and --recover differs from an uninterrupted run";
    [
      ("setup_s", median r.setup);
      ("err_xy_ft", Fixture.err_xy_ft (events_of_log r.log) trace);
      ("rss_peak_mb", mb_of_kb r.rss_kb);
    ]
    @ r.server_metrics
  end

let serve_inputs ctx wl =
  let trace = Fixture.scan ~objects:wl.fx.Srv.objects ~rounds:wl.rounds ~seed:ctx.seed in
  let obs = Array.of_list (Trace.observations trace) in
  (trace, obs, Array.map Trace_io.observation_to_line obs)

let serve_ingest ctx =
  let wl = ingest_wl in
  let trace, obs, lines = serve_inputs ctx wl in
  let measure (s : Srv.t) =
    let st = Load.new_stats () in
    let n = Int.min (Array.length lines) (prep_epochs wl + (ingest_epochs_per_s * int_of_float ctx.seconds)) in
    let acked, marks = Load.burst st s.Srv.conn (Array.sub lines 0 n) ~from:(prep_epochs wl) in
    let fed = prep_epochs wl + acked in
    phase "query probe";
    warm s.Srv.conn;
    let qst = Load.new_stats () in
    let mix = Load.query_mix ~objects:wl.fx.Srv.objects ~known:(known_ids obs fed) ~seed:ctx.seed ~n:3000 in
    ignore
      (Load.open_loop qst ~writer:None
         ~reader:(Some { Load.r_conn = s.Srv.conn; r_rate = probe_rate; r_queries = mix })
         ~duration:probe_s);
    ( (("epochs_per_s", median (Load.segment_rates marks)) :: lag_metrics st) @ lat_metrics qst,
      fed,
      [ st; qst ] )
  in
  serve_result ctx wl ~lines ~trace (run_serve ctx wl ~lines ~measure)

let serve_query ctx =
  let wl = query_wl in
  let trace, obs, lines = serve_inputs ctx wl in
  let measure (s : Srv.t) =
    let bst = Load.new_stats () in
    (* Ingest throughput pools two PUT bursts, one on each side of the
       read mix, so a drift of host speed within the run averages out. *)
    let burst from = Load.burst bst s.Srv.conn (Array.sub lines 0 (from + query_burst)) ~from in
    let a1, m1 = burst (prep_epochs wl) in
    let from = prep_epochs wl + a1 in
    phase "open-loop mix";
    warm s.Srv.conn;
    let reader_conn = Client.connect s.Srv.port in
    ignore (Client.read_greeting reader_conn);
    let mix =
      Load.query_mix ~objects:wl.fx.Srv.objects ~known:(known_ids obs from) ~seed:ctx.seed ~n:6000
    in
    let st = Load.new_stats () in
    let written =
      Fun.protect
        ~finally:(fun () -> Client.close reader_conn)
        (fun () ->
          Load.open_loop st
            ~writer:(Some { Load.w_conn = s.Srv.conn; w_rate = writer_rate; w_lines = lines; w_from = from })
            ~reader:(Some { Load.r_conn = reader_conn; r_rate = reader_rate; r_queries = mix })
            ~duration:ctx.seconds)
    in
    phase "second burst";
    let a2, m2 = burst (from + written) in
    let rate = median (Load.segment_rates ~segments:4 m1 @ Load.segment_rates ~segments:4 m2) in
    ( (("epochs_per_s", rate) :: lag_metrics bst) @ lat_metrics st,
      from + written + a2,
      [ bst; st ] )
  in
  serve_result ctx wl ~lines ~trace (run_serve ctx wl ~lines ~measure)
