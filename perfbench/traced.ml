(* The traced run: the workload's inputs replayed in-process through
   the layers' public functions, once untraced and once under spans
   (their wall-time ratio is [trace.overhead]), then split into
   per-layer metrics. End-to-end metrics never come from here. *)

module Obs = Rfid_obs.Metrics
module Engine = Rfid_core.Engine
module Core = Rfid_serve.Core
module Wal = Rfid_robust.Wal
open Util

(* Every per-layer metric with its unit; a metric a workload does not
   exercise reads 0 (the "predicted no change" cells of README.md). *)
let per_layer =
  [
    ("trace_io.parse_us", "us");
    ("learn.fit_sensor_ms", "ms");
    ("engine.step_us_p50", "us");
    ("engine.step_us_p99", "us");
    ("engine.step_busy_s", "s");
    ("engine.objects_per_step", "count");
    ("engine.sensor_evals_per_step", "count");
    ("engine.resamples_per_step", "count");
    ("engine.compressions_per_step", "count");
    ("engine.index_boxes", "count");
    ("engine.step_growth", "ratio");
    ("engine.flush_ms", "ms");
    ("ingest.admit_us", "us");
    ("ingest.faults", "count");
    ("query.maintain_us_p50", "us");
    ("query.maintain_us_p99", "us");
    ("query.refits_per_maintain", "count");
    ("query.fit_cache_hit_rate", "ratio");
    ("query.full_rebuilds", "count");
    ("query.range_us_p50", "us");
    ("query.near_us_p50", "us");
    ("query.at_us_p50", "us");
    ("query.range_hits", "count");
    ("core.handle_us.put", "us");
    ("core.handle_us.sync", "us");
    ("core.handle_us.range", "us");
    ("core.handle_us.near", "us");
    ("core.handle_us.at", "us");
    ("core.tick_us_p50", "us");
    ("core.queue_depth_max", "count");
    ("framing.feed_us", "us");
    ("server.loop_us.range", "us");
    ("server.loop_us.near", "us");
    ("server.loop_us.at", "us");
    ("wal.append_us_p50", "us");
    ("wal.append_us_p99", "us");
    ("wal.bytes_per_epoch", "B");
    ("wal.fsyncs_per_epoch", "count");
    ("wal.replay_ms", "ms");
    ("durable.write_us", "us");
    ("checkpoint.save_ms", "ms");
    ("checkpoint.load_ms", "ms");
    ("checkpoint.bytes", "B");
    ("attrib.learn", "ratio");
    ("attrib.trace_io", "ratio");
    ("attrib.engine", "ratio");
    ("attrib.ingest", "ratio");
    ("attrib.query", "ratio");
    ("attrib.core", "ratio");
    ("attrib.framing", "ratio");
    ("attrib.wal", "ratio");
    ("attrib.durable", "ratio");
    ("attrib.checkpoint", "ratio");
    ("attrib.unattributed", "ratio");
    ("trace.overhead", "ratio");
    ("loadgen.late_us_p99", "us");
    ("loadgen.sent", "count");
    ("loadgen.busy", "count");
    (* Query latencies over loopback: on a shared VM they follow the
       host's scheduling state more than the program, so they are
       reported here rather than gated (README.md, "Query latencies"). *)
    ("sync_lag_p99_ms", "ms");
    ("range_p50_us", "us");
    ("range_p99_us", "us");
    ("near_p50_us", "us");
    ("near_p99_us", "us");
    ("at_p50_us", "us");
    ("at_p99_us", "us");
  ]

let layers =
  [ "learn"; "trace_io"; "engine"; "ingest"; "query"; "core"; "framing"; "wal"; "durable"; "checkpoint" ]

(* [f ()] untraced twice (the first pass warms caches and the heap,
   the second is timed), then traced under a root span; the registry is
   reset before the traced pass so its counters describe that pass.
   Returns the first and the traced results and the traced / untraced
   wall-time ratio. *)
let twice f =
  Tracer.enabled := false;
  let a = f () in
  let t0 = now () in
  ignore (f ());
  let untraced = now () -. t0 in
  Tracer.reset ();
  Obs.reset Obs.global;
  Tracer.enabled := true;
  let t1 = now () in
  let b = Fun.protect ~finally:(fun () -> Tracer.enabled := false) (fun () -> Tracer.with_ "run" f) in
  (a, b, (now () -. t1) /. untraced)

let or0 v = if Float.is_finite v then v else 0.
let us s = s *. 1e6
let ms s = s *. 1e3
let durs = Tracer.durations
let med_us name = or0 (us (median (durs name)))
let mean_us name = or0 (us (mean (durs name)))
let hist name = Obs.histogram Obs.global name
let hist_q_us name q = or0 (us (Obs.quantile (hist name) q))
let count name = float_of_int (Obs.counter_value (Obs.counter Obs.global name))
let ratio a b = if b > 0. then a /. b else 0.

let attribution () =
  let shares, _ = Tracer.attribution () in
  let known = List.filter (fun (l, _) -> List.mem l layers) shares in
  let other = List.fold_left (fun acc (l, v) -> if List.mem l layers then acc else acc +. v) 0. shares in
  List.map (fun l -> ("attrib." ^ l, Option.value ~default:0. (List.assoc_opt l known))) layers
  @ [ ("attrib.unattributed", other) ]

(* Registry counters of the engine, per step. *)
let engine_counts () =
  let steps =
    float_of_int (Obs.histogram_count (hist "stage.step") + Obs.histogram_count (hist "stage.step_degraded"))
  in
  [
    ("engine.sensor_evals_per_step", ratio (count "health.sensor_evals") steps);
    ("engine.resamples_per_step", ratio (count "filter.object_resamples") steps);
    ("engine.compressions_per_step", ratio (count "filter.compressions") steps);
    ("engine.index_boxes", Obs.gauge_value (Obs.gauge Obs.global "health.index_boxes"));
  ]

(* The load generator's own records. *)
let loadgen socket =
  [
    ("loadgen.late_us_p99", or0 (us (quantile (List.concat_map (fun st -> !(st.Load.late)) socket) 0.99)));
    ("loadgen.sent", float_of_int (List.fold_left (fun a st -> a + st.Load.sent) 0 socket));
    ("loadgen.busy", float_of_int (List.fold_left (fun a st -> a + st.Load.busy) 0 socket));
  ]

let finish ~spans metrics =
  if spans <> "" then Tracer.write spans;
  List.map (fun (n, _) -> (n, Option.value ~default:0. (List.assoc_opt n metrics))) per_layer

(* ------------------------------------------------------------------ *)

let clean_replay ~spans ~objects ~variant ~file ~binary_out ~socket ~socket_metrics =
  let f () =
    let params = Tracer.with_ "learn.fit_sensor" Fixture.replay_params in
    let observations =
      Tracer.with_ "trace_io.parse" (fun () ->
          let ic = open_in file in
          Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Rfid_model.Trace_io.read_observations ic))
    in
    let engine =
      Tracer.with_ "engine.create" (fun () -> Fixture.replay_engine ~objects ~variant ~params observations)
    in
    let objs = ref 0 in
    let events =
      List.concat_map
        (fun o ->
          let evs = Tracer.with_ "engine.step" (fun () -> Engine.step engine o) in
          objs := !objs + Engine.objects_processed_last_step engine;
          evs)
        observations
    in
    let final = Tracer.with_ "engine.flush" (fun () -> Engine.flush engine) in
    let n_obs = List.length observations in
    (Tracer.with_ "trace_io.render" (fun () -> Fixture.render_replay ~file ~n_obs (events @ final)), n_obs, !objs)
  in
  let (plain, _, _), (traced, n_obs, objs), overhead = twice f in
  check (plain = binary_out) "untraced in-process replay differs from the binary's output";
  check (traced = binary_out) "traced in-process replay differs from the binary's output";
  let steps = Array.of_list (durs "engine.step") in
  let quarter = Array.length steps / 4 in
  let qmean k = mean (Array.to_list (Array.sub steps (k * quarter) quarter)) in
  let one name = match durs name with [ d ] -> d | _ -> 0. in
  finish ~spans
    ([
       ("trace_io.parse_us", us (one "trace_io.parse") /. float_of_int n_obs);
       ("learn.fit_sensor_ms", ms (one "learn.fit_sensor"));
       ("engine.step_us_p50", med_us "engine.step");
       ("engine.step_us_p99", or0 (us (quantile (durs "engine.step") 0.99)));
       ("engine.step_busy_s", List.fold_left ( +. ) 0. (durs "engine.step"));
       ("engine.objects_per_step", float_of_int objs /. float_of_int n_obs);
       ("engine.step_growth", or0 (qmean 3 /. qmean 0));
       ("engine.flush_ms", ms (one "engine.flush"));
       ("trace.overhead", overhead);
     ]
    @ engine_counts () @ attribution () @ loadgen socket @ socket_metrics)

(* ------------------------------------------------------------------ *)

type serve_input = {
  fx : Srv.fixture;
  prep : string;  (* the recovery state the server started from *)
  chunks : string list list;  (* every request after recovery, as sent *)
  live_tail : string list;  (* the server's replies to the last requests (verification, DRAIN) *)
  server_log : string;  (* the server's durable events log *)
  socket : Load.stats list;  (* the load generator's records *)
  socket_metrics : (string * float) list;  (* what the socket run measured *)
  scratch : string;
}

let verb_name line = String.lowercase_ascii (Client.verb_of line)

let replay_serve inp () =
  let fx = inp.fx in
  let dir = Filename.concat inp.scratch "inproc" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let boot =
    Tracer.with_ "learn.bootstrap" (fun () ->
        Rfid_serve.Bootstrap.make ~objects:fx.Srv.objects ~seed:Fixture.engine_seed ~variant:fx.Srv.variant
          ~particles:Fixture.particles ())
  in
  let snap =
    match Tracer.with_ "checkpoint.load" (fun () -> Rfid_robust.Checkpoint.load_auto ~path:(Srv.ckpt inp.prep)) with
    | Ok s -> s
    | Error msg -> failwith ("checkpoint: " ^ msg)
  in
  let engine = Tracer.with_ "engine.restore" (fun () -> Rfid_serve.Bootstrap.restore_engine boot snap) in
  let guard = Rfid_serve.Bootstrap.fresh_guard boot in
  Rfid_robust.Ingest.advance_timeline guard (Engine.epoch engine);
  let tail = Tracer.with_ "wal.read" (fun () -> Wal.read ~path:(Srv.wal inp.prep)) in
  let ev_fd = Unix.openfile (Srv.events dir) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let write_line s = Tracer.with_ "durable.write" (fun () -> Rfid_robust.Durable.write ev_fd s) in
  let on_events evs = List.iter (fun ev -> write_line (Fixture.event_line ev)) evs in
  (match Tracer.with_ ~registry:true "wal.replay" (fun () -> Wal.replay ~guard ~engine tail.Wal.entries) with
  | Ok evs -> on_events evs
  | Error msg -> failwith ("wal replay: " ^ msg));
  let w = Wal.create_writer ~append:false ~fsync_every:fx.Srv.wal_fsync_every ~path:(Srv.wal dir) () in
  Engine.set_journal engine
    (Some
       (fun entry ->
         Tracer.with_ "wal.append" (fun () ->
             Wal.append w
               (match entry with
               | Engine.Journal_step o -> Wal.Step o
               | Engine.Journal_degraded (e, tags) -> Wal.Degraded (e, tags)))));
  let on_checkpoint eng =
    Tracer.with_ "wal.sync" (fun () -> Wal.sync w);
    Tracer.with_ "durable.fsync" (fun () -> Rfid_robust.Durable.fsync ev_fd);
    Tracer.with_ "checkpoint.save" (fun () -> Rfid_robust.Checkpoint.save ~path:(Srv.ckpt dir) (Engine.snapshot eng))
  in
  let hooks =
    {
      Core.on_events;
      on_flush_mark = (fun () -> write_line "# flush\n");
      on_admitted = ignore;
      on_checkpoint;
    }
  in
  let core =
    Core.create ~guard ~engine ~num_objects:fx.Srv.objects ~checkpoint_every:fx.Srv.checkpoint_every ~hooks ()
  in
  let fb = Rfid_serve.Framing.create_buffer () in
  let replies = ref [] and qmax = ref 0 and objs = ref 0 and stepped = ref 0 in
  List.iter
    (fun chunk ->
      let data = String.concat "" (List.map (fun l -> l ^ "\n") chunk) in
      let before = Engine.epoch engine in
      List.iter
        (function
          | Rfid_serve.Framing.Line l ->
              let reply, _ =
                Tracer.with_ ~registry:true ("core.handle." ^ verb_name l) (fun () -> Core.handle_line core l)
              in
              replies := reply :: !replies;
              qmax := Int.max !qmax (Core.queue_depth core)
          | Rfid_serve.Framing.Overflow -> fail "in-process framing overflow")
        (Tracer.with_ "framing.feed" (fun () -> Rfid_serve.Framing.feed fb data));
      ignore (Tracer.with_ ~registry:true "core.tick" (fun () -> Core.tick core ~max_steps:256));
      if Engine.epoch engine > before then begin
        objs := !objs + Engine.objects_processed_last_step engine;
        incr stepped
      end)
    inp.chunks;
  Wal.close w;
  Unix.close ev_fd;
  let log = read_file (Srv.events dir) in
  let wal_bytes = file_size (Srv.wal dir) in
  rm_rf dir;
  ( List.rev !replies,
    log,
    wal_bytes,
    !qmax,
    ratio (float_of_int !objs) (float_of_int !stepped),
    Rfid_robust.Ingest.total_faults guard,
    engine )

(* Per-verb medians of the bare query functions over the final
   posterior, outside the traced pass, with a fresh query layer as the
   only consumer of the engine's change feed; plus the trace line
   parser over the PUT lines. *)
let side_measurements engine chunks =
  let module Q = Rfid_serve.Query in
  let q = Q.create () in
  Q.maintain q ~engine;
  let lines = List.concat chunks in
  let take verb =
    List.filter (fun l -> Client.verb_of l = verb) lines
    |> List.filteri (fun i _ -> i < 1024)
    |> List.map (fun l -> List.tl (String.split_on_char ' ' l))
  in
  (* Calls are timed in groups of 8 (an AT answers in well under the
     clock's microsecond); the metric is the median per-call time. *)
  let per_call calls =
    let rec groups acc = function
      | a :: b :: c :: d :: e :: f :: g :: h :: rest ->
          let t0 = now () in
          List.iter (fun call -> call ()) [ a; b; c; d; e; f; g; h ];
          groups (((now () -. t0) /. 8.) :: acc) rest
      | _ -> acc
    in
    or0 (us (median (groups [] calls)))
  in
  let f = float_of_string in
  let hits = ref 0 and ranges = ref 0 in
  let range =
    List.filter_map
      (function
        | [ a; b; c; d; m ] ->
            Some
              (fun () ->
                let ans = Q.range q ~engine ~min_x:(f a) ~min_y:(f b) ~max_x:(f c) ~max_y:(f d) ~min_mass:(f m) in
                hits := !hits + List.length ans;
                incr ranges)
        | _ -> None)
      (take "RANGE")
  in
  let near =
    List.filter_map
      (function
        | [ k; x; y ] -> Some (fun () -> ignore (Q.near q ~engine ~k:(int_of_string k) ~x:(f x) ~y:(f y)))
        | _ -> None)
      (take "NEAR")
  in
  let at =
    List.filter_map
      (function [ id ] -> Some (fun () -> ignore (Q.at q ~engine (int_of_string id))) | _ -> None)
      (take "AT")
  in
  let puts =
    List.filter_map
      (fun l -> if starts_with ~prefix:"PUT " l then Some (String.sub l 4 (String.length l - 4)) else None)
      lines
  in
  let t0 = now () in
  List.iter (fun l -> ignore (Rfid_model.Trace_io.observation_of_line l)) puts;
  let parse_s = now () -. t0 in
  let range_us = per_call range in
  [
    ("query.range_us_p50", range_us);
    ("query.near_us_p50", per_call near);
    ("query.at_us_p50", per_call at);
    ("query.range_hits", ratio (float_of_int !hits) (float_of_int !ranges));
    ("trace_io.parse_us", or0 (us parse_s /. float_of_int (List.length puts)));
  ]

let serve ~spans inp =
  let (plain, _, _, _, _, _, _), (traced, log, wal_bytes, qmax, objs_per_step, faults, engine), overhead =
    twice (replay_serve inp)
  in
  let registry = engine_counts () @ attribution () in
  let n_tail = List.length inp.live_tail in
  let tail l = List.filteri (fun i _ -> i >= List.length l - n_tail) l in
  check (tail plain = inp.live_tail) "untraced in-process replies differ from the server's";
  check (tail traced = inp.live_tail) "traced in-process replies differ from the server's";
  check (String.ends_with ~suffix:log inp.server_log)
    "in-process events after recovery differ from the server's events log";
  let records = count "wal.records" in
  let socket_lat verb = List.concat_map (fun st -> Load.latencies st verb) inp.socket in
  let loop verb name = or0 (us (median (socket_lat verb))) -. med_us ("core.handle." ^ name) in
  let maintains = float_of_int (Obs.histogram_count (hist "stage.query_maintain")) in
  let at_count = float_of_int (List.length (durs "core.handle.at")) in
  let one name = match durs name with [ d ] -> d | _ -> 0. in
  let admits = hist "stage.ingest" in
  let metrics =
    [
      ("learn.fit_sensor_ms", ms (one "learn.bootstrap"));
      ("engine.step_us_p50", hist_q_us "stage.step" 0.5);
      ("engine.step_us_p99", hist_q_us "stage.step" 0.99);
      ("engine.step_busy_s", Obs.histogram_sum (hist "stage.step") +. Obs.histogram_sum (hist "stage.step_degraded"));
      ("engine.objects_per_step", objs_per_step);
      ("ingest.admit_us", or0 (us (Obs.histogram_sum admits /. float_of_int (Obs.histogram_count admits))));
      ("ingest.faults", float_of_int faults);
      ("query.maintain_us_p50", hist_q_us "stage.query_maintain" 0.5);
      ("query.maintain_us_p99", hist_q_us "stage.query_maintain" 0.99);
      ("query.refits_per_maintain", ratio (count "query.index_updates") maintains);
      ("query.fit_cache_hit_rate", ratio (count "query.fit_cache_hits") at_count);
      ("query.full_rebuilds", count "query.full_rebuilds");
      ("core.handle_us.put", med_us "core.handle.put");
      ("core.handle_us.sync", med_us "core.handle.sync");
      ("core.handle_us.range", med_us "core.handle.range");
      ("core.handle_us.near", med_us "core.handle.near");
      ("core.handle_us.at", med_us "core.handle.at");
      ("core.tick_us_p50", med_us "core.tick");
      ("core.queue_depth_max", float_of_int qmax);
      ("framing.feed_us", mean_us "framing.feed");
      ("server.loop_us.range", loop "RANGE" "range");
      ("server.loop_us.near", loop "NEAR" "near");
      ("server.loop_us.at", loop "AT" "at");
      ("wal.append_us_p50", med_us "wal.append");
      ("wal.append_us_p99", or0 (us (quantile (durs "wal.append") 0.99)));
      ("wal.bytes_per_epoch", ratio (float_of_int wal_bytes) records);
      ("wal.fsyncs_per_epoch", ratio (count "wal.fsyncs") records);
      ("wal.replay_ms", ms (one "wal.replay"));
      ("durable.write_us", mean_us "durable.write");
      ("checkpoint.save_ms", or0 (ms (mean (durs "checkpoint.save"))));
      ("checkpoint.load_ms", ms (one "checkpoint.load"));
      ("checkpoint.bytes", float_of_int (file_size (Srv.ckpt inp.prep)));
      ("trace.overhead", overhead);
    ]
    @ loadgen inp.socket
  in
  (* The side measurements run last: they add to the registry. *)
  let side = side_measurements engine inp.chunks in
  finish ~spans (metrics @ registry @ side @ inp.socket_metrics)
