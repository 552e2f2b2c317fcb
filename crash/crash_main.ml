(* Kill-anywhere recovery harness, for both durable commands.

   Forks the CLI with RFID_CRASH_AT_BYTE=k — the durable-write layer
   SIGKILLs the process partway through the write that crosses byte k,
   leaving a torn checkpoint, WAL record, or event line exactly as a
   real crash would — then restarts it with `--recover` in the same
   directory and asserts the recovered durable event log is
   byte-identical to an uninterrupted golden run's. Kill offsets are
   drawn uniformly over the golden run's total durable bytes, so
   mid-checkpoint, mid-WAL, and mid-event-line tears all get hit.

   Two scenarios, TRIALS kill trials each:
   - infer: a batch run with injected NaN fixes (so the WAL carries
     degraded epochs too), recovered by `infer --recover`;
   - serve: `serve --port 0` fed a fixed trace by PUT until the socket
     dies, then restarted with `--recover` and fed the whole trace
     again — the ingest guard drops every epoch at or before the
     recovered one — and finally DRAINed.

   Each scenario also runs one `drained` trial: the run completes
   (a server is SIGKILLed only after its DRAIN reply), then recovers.
   Recovery restores the final checkpoint, taken before the flush, and
   must emit the end-of-stream flush events exactly once more.

   Before any trial, `--recover` without `--checkpoint` must be a
   command-line error (exit 124) for both commands.

   Usage: crash_main [TRIALS] [BASE_SEED] [infer|serve|all]
   Every trial logs its scenario, seed and offset, so any failure
   replays with `crash_main 1 <seed> <scenario>`. Exits 1 if a trial
   failed, leaving that trial's directory in place for inspection. *)

let default_trials = 50
let default_seed = 20260808

let cli_path () =
  let dir = Filename.dirname Sys.executable_name in
  let candidate = Filename.concat dir "../bin/rfid_clean.exe" in
  if Sys.file_exists candidate then candidate
  else (
    Printf.eprintf "crash_main: cannot find rfid_clean.exe near %s\n"
      Sys.executable_name;
    exit 2)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let parse_durable_bytes path =
  let marker = "# durable-bytes=" in
  String.split_on_char '\n' (read_file path)
  |> List.find_map (fun line ->
         if starts_with ~prefix:marker line then
           int_of_string_opt
             (String.sub line (String.length marker)
                (String.length line - String.length marker))
         else None)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Spawn the CLI with stdout/stderr redirected to [name].out/.err in
   [dir], with the crash hook armed at [crash_at] if given. *)
let spawn ~cli ~dir ~name ~crash_at args =
  let env =
    let base =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv -> not (starts_with ~prefix:"RFID_CRASH_AT_BYTE=" kv))
    in
    Array.of_list
      (match crash_at with
      | Some k -> Printf.sprintf "RFID_CRASH_AT_BYTE=%d" k :: base
      | None -> base)
  in
  let open_log suffix =
    Unix.openfile
      (Filename.concat dir (name ^ suffix))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let out = open_log ".out" and err = open_log ".err" in
  let pid = Unix.create_process_env cli (Array.of_list (cli :: args)) env Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  pid

let wait pid = snd (Unix.waitpid [] pid)

let durable_args ~dir ~every =
  let p = Filename.concat dir in
  [
    "--checkpoint"; p "ck"; "--checkpoint-keep"; "3"; "--checkpoint-every"; every;
    "--wal"; p "wal.log"; "--wal-fsync-every"; "4"; "--events"; p "events.log";
  ]

let recover_flag recover = if recover then [ "--recover" ] else []

(* ---------------- infer: one batch process per run ---------------- *)

let run_infer ~cli ~dir ~name ~crash_at ~kill_when_done:_ ~recover =
  wait
    (spawn ~cli ~dir ~name ~crash_at
       ([
          "infer"; "--objects"; "6"; "--particles"; "30"; "--rounds"; "1";
          "--seed"; "42"; "--fault-nan"; "0.05"; "--variant"; "indexed";
        ]
       @ durable_args ~dir ~every:"7" @ recover_flag recover))

(* ---------------- serve: a server fed over loopback ---------------- *)

let serve_objects = 6

(* The fixed feed: a two-round scan of the server's own warehouse
   layout (Bootstrap builds the same one from --objects). *)
let put_lines =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:serve_objects () in
     Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
       ~object_locs:wh.Rfid_sim.Warehouse.object_locs
       ~start:(Rfid_sim.Warehouse.reader_start wh)
       ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:2)
       ~config:(Rfid_sim.Trace_gen.default_config ())
       (Rfid_prob.Rng.create ~seed:42)
     |> Rfid_model.Trace.observations
     |> List.map (fun o -> "PUT " ^ Rfid_model.Trace_io.observation_to_line o))

(* Poll the server's stdout for its `# rfid-serve listening on H:P`
   line; [Error status] if it exits first. *)
let wait_port ~dir ~name ~pid =
  let marker = "# rfid-serve listening on " in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> (
        let out = try read_file (Filename.concat dir (name ^ ".out")) with Sys_error _ -> "" in
        let port =
          String.split_on_char '\n' out
          |> List.find_map (fun line ->
                 if starts_with ~prefix:marker line then
                   Option.bind (String.rindex_opt line ':') (fun i ->
                       int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
                 else None)
        in
        match port with
        | Some p -> Ok p
        | None when Unix.gettimeofday () > deadline ->
            Unix.kill pid Sys.sigkill;
            Error (wait pid)
        | None ->
            ignore (Unix.select [] [] [] 0.02);
            go ())
    | _, status -> Error status
  in
  go ()

(* Feed the whole trace one PUT at a time, then SYNC, DRAIN and QUIT.
   A killed server ends the session early with an I/O error; a live
   one is then stopped with SIGTERM, or SIGKILL if [kill_when_done].
   Replies are not checked: a lost PUT shows up as a differing events
   log. *)
let run_serve ~cli ~dir ~name ~crash_at ~kill_when_done ~recover =
  let args =
    [ "serve"; "--port"; "0"; "--objects"; string_of_int serve_objects; "--seed"; "42";
      "--particles"; "30" ]
    @ durable_args ~dir ~every:"7" @ recover_flag recover
  in
  let pid = spawn ~cli ~dir ~name ~crash_at args in
  match wait_port ~dir ~name ~pid with
  | Error status -> status
  | Ok port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let completed =
        try
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
          let request line =
            output_string oc (line ^ "\n");
            flush oc;
            ignore (input_line ic)
          in
          ignore (input_line ic);
          List.iter request (Lazy.force put_lines @ [ "SYNC"; "DRAIN"; "QUIT" ]);
          true
        with End_of_file | Sys_error _ | Unix.Unix_error _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if completed then Unix.kill pid (if kill_when_done then Sys.sigkill else Sys.sigterm);
      wait pid

(* ---------------- the trial loop ---------------- *)

(* The newest checkpoint a crashed run left complete; rotation names
   appear only after the file is whole and fsynced. *)
let newest_checkpoint dir =
  match Sys.readdir (Filename.concat dir "ck") with
  | exception Sys_error _ -> None
  | names ->
      Array.fold_left
        (fun acc n ->
          match Scanf.sscanf n "ckpt-%d.bin%!" Fun.id with
          | e -> Some (Option.fold ~none:e ~some:(max e) acc)
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> acc)
        None names

(* The epoch recovery resumed from, per its `# resuming from P at
   epoch E` line. Without this check a recovery that silently started
   over would pass: re-feeding the whole input reproduces the log. *)
let resumed_epoch dir =
  String.split_on_char '\n' (read_file (Filename.concat dir "recover.err"))
  |> List.find_map (fun line ->
         if starts_with ~prefix:"# resuming from " line then
           Option.bind (String.rindex_opt line ' ') (fun i ->
               int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
         else None)

let scenarios = [ ("infer", run_infer); ("serve", run_serve) ]

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "died on signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped on signal %d" s

(* `--recover` without `--checkpoint` has nothing to load from: both
   commands must refuse it as a command-line error before any trial
   relies on their recovery paths. *)
let check_recover_needs_checkpoint ~cli ~root =
  List.iter
    (fun args ->
      let pid = spawn ~cli ~dir:root ~name:"usage" ~crash_at:None args in
      (* A regression here could start a server that never exits. *)
      let deadline = Unix.gettimeofday () +. 30. in
      let rec poll () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () > deadline ->
            Unix.kill pid Sys.sigkill;
            wait pid
        | 0, _ ->
            ignore (Unix.select [] [] [] 0.02);
            poll ()
        | _, status -> status
      in
      match poll () with
      | Unix.WEXITED 124 -> ()
      | status ->
          Printf.eprintf "crash_main: `%s` %s, expected a usage error (exit 124)\n"
            (String.concat " " args) (describe status);
          exit 2)
    [ [ "infer"; "--objects"; "2"; "--recover" ]; [ "serve"; "--port"; "0"; "--recover" ] ]

let run_scenario ~root ~trials ~base_seed (name, run) =
  let root = Filename.concat root name in
  Unix.mkdir root 0o755;
  (* Golden run: uninterrupted, same scenario. Its events.log is the
     reference and its durable-byte count bounds the kill offsets. *)
  let golden_dir = Filename.concat root "golden" in
  Unix.mkdir golden_dir 0o755;
  (match run ~dir:golden_dir ~name:"run" ~crash_at:None ~kill_when_done:false ~recover:false with
  | Unix.WEXITED 0 -> ()
  | status ->
      Printf.eprintf "crash_main: %s golden run %s (see %s)\n" name (describe status)
        golden_dir;
      exit 2);
  let total_bytes =
    match parse_durable_bytes (Filename.concat golden_dir "run.err") with
    | Some n when n > 1 -> n
    | _ ->
        Printf.eprintf "crash_main: %s golden run did not report durable-bytes\n" name;
        exit 2
  in
  let golden_events = read_file (Filename.concat golden_dir "events.log") in
  Printf.printf
    "crash-test %s: %d kill trials + 1 drained, base seed %d, %d durable bytes to aim at\n%!"
    name trials base_seed total_bytes;
  let failures = ref 0 in
  (* One crash run in [dir] killed at byte [crash_at] (or, with None,
     completed — a server then SIGKILLed after DRAIN), a recovery, and
     the checks. *)
  let trial ~label ~dir ~crash_at =
    rm_rf dir;
    Unix.mkdir dir 0o755;
    let fail msg =
      incr failures;
      Printf.printf "%s trial %s FAIL: %s (kept %s)\n%!" name label msg dir
    in
    let recover () =
      let newest = newest_checkpoint dir in
      match run ~dir ~name:"recover" ~crash_at:None ~kill_when_done:false ~recover:true with
      | Unix.WEXITED 0 -> (
          let show = Option.fold ~none:"none" ~some:string_of_int in
          match read_file (Filename.concat dir "events.log") with
          | _ when resumed_epoch dir <> newest ->
              fail
                (Printf.sprintf "recovery resumed from epoch %s, newest checkpoint %s"
                   (show (resumed_epoch dir)) (show newest))
          | events when events = golden_events ->
              Printf.printf "%s trial %s ok\n%!" name label;
              rm_rf dir
          | _ -> fail "recovered events.log differs from golden"
          | exception Sys_error m -> fail ("no events.log after recovery: " ^ m))
      | status -> fail ("recovery " ^ describe status)
    in
    match run ~dir ~name:"run" ~crash_at ~kill_when_done:true ~recover:false with
    | Unix.WSIGNALED s when s = Sys.sigkill -> recover ()
    (* a completed batch run exits on its own *)
    | Unix.WEXITED 0 when crash_at = None -> recover ()
    | status -> fail ("crash run " ^ describe status ^ " instead of dying on SIGKILL")
  in
  for t = 0 to trials - 1 do
    let seed = base_seed + t in
    let rng = Rfid_prob.Rng.create ~seed in
    let k = Rfid_prob.Rng.int rng (total_bytes - 1) in
    trial
      ~label:(Printf.sprintf "%3d seed=%d kill@%-7d" t seed k)
      ~dir:(Filename.concat root (Printf.sprintf "trial_%03d" t))
      ~crash_at:(Some k)
  done;
  trial ~label:"drained" ~dir:(Filename.concat root "trial_drained") ~crash_at:None;
  !failures

let () =
  let arg i = if Array.length Sys.argv > i then Some Sys.argv.(i) else None in
  let trials = Option.fold ~none:default_trials ~some:int_of_string (arg 1) in
  let base_seed = Option.fold ~none:default_seed ~some:int_of_string (arg 2) in
  let scenarios =
    match arg 3 with
    | None | Some "all" -> scenarios
    | Some s when List.mem_assoc s scenarios -> [ (s, List.assoc s scenarios) ]
    | Some s ->
        Printf.eprintf "crash_main: unknown scenario %S (infer, serve or all)\n" s;
        exit 2
  in
  (* A server killed mid-session must surface as an I/O error on the
     feeding socket, not kill the harness. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cli = cli_path () in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rfid_crash_%d" (Unix.getpid ()))
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  check_recover_needs_checkpoint ~cli ~root;
  let failures =
    List.fold_left
      (fun n (name, run) ->
        n + run_scenario ~root ~trials ~base_seed (name, run ~cli))
      0 scenarios
  in
  let total = (trials + 1) * List.length scenarios in
  if failures = 0 then begin
    rm_rf root;
    Printf.printf "crash-test: %d/%d trials recovered bit-identically\n" total total
  end
  else begin
    Printf.printf "crash-test: %d/%d trials FAILED (artifacts under %s)\n" failures total
      root;
    exit 1
  end
