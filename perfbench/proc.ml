(* Child processes of the benchmark: every rfid_clean the harness starts
   is registered here, so that every exit path (a finished run, a failed
   check, an exception, SIGTERM from the caller) kills and reaps it. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let wait pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  Hashtbl.remove live pid;
  st

let pp_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Peak resident set of a live child, in kB, from VmHWM in
   /proc/PID/status (0 once it has exited). wait4's ru_maxrss is no use
   here: a child spawned with vfork+exec inherits the harness's own
   resident set into it. *)
let peak_rss_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0
            | l when Util.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
            | _ -> go ()
          in
          go ())

external pin : int -> int -> bool = "pb_pin"
external allowed_cpus : unit -> int list = "pb_allowed_cpus"

external spinner_start : int -> bool = "pb_spinner_start"
external spinner_stop : unit -> unit = "pb_spinner_stop"

let host_cpus = List.length (allowed_cpus ())

(* With two or more CPUs the harness (load generator and in-process
   references) runs on the first allowed CPU and every child on the
   second, so the generator's spinning never delays the program under
   test and the kernel never migrates either; an idle-priority spinner
   keeps the second CPU out of the halted state (see stubs.c). *)
let harness_cpu, child_cpu =
  match allowed_cpus () with
  | a :: b :: _ -> if pin 0 a && spinner_start b then (Some a, Some b) else (None, None)
  | _ -> (None, None)

(* Run [f] with the harness's thread on the children's CPU. *)
let on_child_cpu f =
  match (harness_cpu, child_cpu) with
  | Some a, Some b ->
      ignore (pin 0 b);
      Fun.protect ~finally:(fun () -> ignore (pin 0 a)) f
  | _ -> f ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigcont with Unix.Unix_error _ -> ());
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait pid)

let cleanup () =
  Hashtbl.fold (fun pid () acc -> pid :: acc) live []
  |> List.iter (fun pid -> try kill_and_reap pid with _ -> ());
  spinner_stop ()

(* Start [exe args] with stdout to [stdout_to] (a file path, or a pipe
   when [`Pipe]) and stderr to the file [stderr_to]. *)
let spawn ~exe ~args ~stdout_to ~stderr_to =
  let err = Unix.openfile stderr_to [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out, pipe_read =
    match stdout_to with
    | `File path ->
        (Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644, None)
    | `Pipe ->
        let r, w = Unix.pipe ~cloexec:true () in
        (w, Some r)
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out err)
  in
  Hashtbl.replace live pid ();
  Option.iter (fun cpu -> ignore (pin pid cpu)) child_cpu;
  (pid, pipe_read)

(* Run to completion; returns wall seconds and the exit status. *)
let run ~exe ~args ~stdout_to ~stderr_to =
  let t0 = Util.now () in
  let pid, _ = spawn ~exe ~args ~stdout_to:(`File stdout_to) ~stderr_to in
  let st = wait pid in
  (Util.now () -. t0, st)

(* As [run], sampling the child's peak resident set every 2 ms; also
   returns the largest sample, in kB. *)
let run_sampled ~exe ~args ~stdout_to ~stderr_to =
  let t0 = Util.now () in
  let pid, _ = spawn ~exe ~args ~stdout_to:(`File stdout_to) ~stderr_to in
  let hwm = ref 0 in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        hwm := Int.max !hwm (peak_rss_kb pid);
        Unix.sleepf 0.002;
        poll ()
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  let st = poll () in
  Hashtbl.remove live pid;
  (Util.now () -. t0, st, !hwm)

(* Read the server's stdout pipe until its listening announcement;
   returns the port. Fails if the process exits first or the deadline
   passes. *)
let await_port ~pid ~fd ~deadline =
  let marker = "# rfid-serve listening on " in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let text = Buffer.contents buf in
    let complete =
      match String.rindex_opt text '\n' with None -> "" | Some i -> String.sub text 0 i
    in
    let port =
      String.split_on_char '\n' complete
      |> List.find_map (fun line ->
             if Util.starts_with ~prefix:marker line then
               match String.rindex_opt line ':' with
               | Some i ->
                   int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
               | None -> None
             else None)
    in
    match port with
    | Some p -> p
    | _ ->
        let left = deadline -. Util.now () in
        if left <= 0. then failwith "server did not announce its port in time";
        (match Unix.select [ fd ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                failwith
                  (Printf.sprintf "server exited (%s) before announcing a port"
                     (pp_status (wait pid)))
            | n -> Buffer.add_subbytes buf chunk 0 n));
        go ()
  in
  go ()
