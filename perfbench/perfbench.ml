(* perfbench: the repository benchmark's harness.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               --cli PATH --scratch DIR [--spans FILE]

   Generates the workload's inputs from the seed, drives the rfid_clean
   binary at PATH, checks its outputs against in-process references,
   and prints one JSON result as the last line of stdout. With
   --trace 1 it reports the per-layer metrics of a traced in-process
   replay instead of the end-to-end ones (see README.md). Scratch files
   live under DIR, which the harness removes on every exit path. *)

open Util

let end_to_end =
  [
    ("setup_s", "s");
    ("epochs_per_s", "1/s");
    ("err_xy_ft", "ft");
    ("rss_peak_mb", "MB");
    ("sync_lag_p50_ms", "ms");
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload clean_replay|serve_ingest|serve_query --seed N --seconds S \
     --trace 0|1 --cli PATH --scratch DIR [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "" and scratch = ref "" and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--cli", Arg.Set_string cli, "PATH");
      ("--scratch", Arg.Set_string scratch, "DIR");
      ("--spans", Arg.Set_string spans, "FILE");
    ]
    (fun _ -> usage ())
    "perfbench";
  if !cli = "" || !scratch = "" || not (Sys.file_exists !cli) then usage ();
  let run =
    match !workload with
    | "clean_replay" -> Wl.clean_replay
    | "serve_ingest" -> Wl.serve_ingest
    | "serve_query" -> Wl.serve_query
    | "selftest_stall" -> Selftest.stall
    | _ -> usage ()
  in
  let stop_requested _ = raise Exit in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_requested);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_requested);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  rm_rf !scratch;
  Unix.mkdir !scratch 0o755;
  (* A larger minor heap and a lazier major GC keep the generator's own
     pauses out of the latencies it stamps. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 200 };
  let ctx =
    {
      Wl.cli = !cli;
      scratch = !scratch;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      spans = !spans;
    }
  in
  ignore (Host.calibrate ());
  Host.sample "start";
  let outcome =
    match run ctx with
    | metrics -> Ok metrics
    | exception Exit -> Error "interrupted"
    | exception e -> Error (Printexc.to_string e)
  in
  (* Cleanup is not interrupted by a second signal. *)
  List.iter (fun s -> Sys.set_signal s Sys.Signal_ignore) [ Sys.sigterm; Sys.sigint ];
  Proc.cleanup ();
  rm_rf !scratch;
  Host.sample "end";
  Printf.printf "{\"host\": %s, \"calibration\": [%s]}\n" (Host.fingerprint ()) (Host.samples_json ());
  match outcome with
  | Error msg ->
      Printf.eprintf "perfbench: %s: aborted: %s\n%!" !workload msg;
      exit 1
  | Ok metrics ->
      let expected =
        if !workload = "selftest_stall" then List.map (fun (n, _) -> (n, "")) metrics
        else if ctx.Wl.trace then Traced.per_layer
        else end_to_end
      in
      let missing = List.filter (fun (n, _) -> not (List.mem_assoc n metrics)) expected in
      if missing <> [] then begin
        Printf.eprintf "perfbench: metrics not measured: %s\n%!"
          (String.concat ", " (List.map fst missing));
        exit 1
      end;
      let finite = List.for_all (fun (n, _) -> Float.is_finite (List.assoc n metrics)) expected in
      let correct = tally.failed = 0 && finite in
      let body =
        List.map
          (fun (n, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
              (json_float (List.assoc n metrics)) (json_string u))
          expected
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        correct (Int.max 1 tally.attempted) tally.failed (String.concat ", " body)
