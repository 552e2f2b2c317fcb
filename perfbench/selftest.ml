(* The open-loop self-test: stop the server with SIGSTOP in the middle
   of an open-loop read stream, continue it, and check that every
   request due during the stop carries the rest of the stop in its
   latency, while the generator kept its schedule (its lateness is
   reported and stays small). *)

open Util

let stop_at = 0.8
let cont_at = 1.1

let stall (ctx : Wl.ctx) =
  let objects = 200 in
  let fx =
    { Srv.objects; variant = Rfid_core.Config.Factorized_indexed; checkpoint_every = 0; wal_fsync_every = 1 }
  in
  let trace = Fixture.scan ~objects ~rounds:1 ~seed:ctx.Wl.seed in
  let obs = Array.of_list (Rfid_model.Trace.observations trace) in
  let lines = Array.map Rfid_model.Trace_io.observation_to_line obs in
  let n = 300 in
  let dir = Filename.concat ctx.Wl.scratch "stall" in
  Unix.mkdir dir 0o755;
  let s = Srv.start ~cli:ctx.Wl.cli fx ~dir ~recover:false in
  let acked, _ = Load.burst (Load.new_stats ()) s.Srv.conn (Array.sub lines 0 n) ~from:0 in
  check (acked = n) "fed %d of %d epochs" acked n;
  Wl.warm s.Srv.conn;
  let st = Load.new_stats () in
  let t_stop = ref nan and t_cont = ref nan in
  let during elapsed =
    if Float.is_nan !t_stop && elapsed >= stop_at then begin
      Unix.kill s.Srv.pid Sys.sigstop;
      t_stop := now ()
    end
    else if Float.is_nan !t_cont && elapsed >= cont_at then begin
      Unix.kill s.Srv.pid Sys.sigcont;
      t_cont := now ()
    end
  in
  let mix = Load.query_mix ~objects ~known:(Wl.known_ids obs n) ~seed:ctx.Wl.seed ~n:1000 in
  ignore
    (Load.open_loop ~during st ~writer:None
       ~reader:(Some { Load.r_conn = s.Srv.conn; r_rate = 500.; r_queries = mix })
       ~duration:2.0);
  Srv.stop s;
  (* A request due at d inside the stop cannot be answered before the
     server continues: its latency is at least t_cont - d. *)
  let stalled = List.filter (fun (d, _) -> d >= !t_stop && d < !t_cont) (List.concat_map (Load.samples st) [ "RANGE"; "NEAR"; "AT" ]) in
  let short = List.filter (fun (d, lat) -> lat < !t_cont -. d) stalled in
  check (List.length stalled >= 100) "only %d requests were due during the stop" (List.length stalled);
  check (short = []) "%d requests due during the stop answered sooner than the stop allows"
    (List.length short);
  let late_p99 = quantile !(st.Load.late) 0.99 in
  check (Float.is_finite late_p99 && late_p99 < 0.005)
    "generator lateness p99 %.3f ms: the generator did not keep its schedule" (late_p99 *. 1e3);
  let excess = List.map (fun (d, lat) -> lat -. (!t_cont -. d)) stalled in
  [
    ("stalled_requests", float_of_int (List.length stalled));
    ("stall_s", !t_cont -. !t_stop);
    ("min_latency_minus_remaining_stop_ms", 1e3 *. List.fold_left Float.min infinity excess);
    ("stalled_p50_ms", 1e3 *. median (List.map snd stalled));
    ("late_us_p99", 1e6 *. late_p99);
  ]
