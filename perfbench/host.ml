(* Host fingerprint and a fixed calibration kernel, recorded beside the
   metrics of every run so results from different hosts, or from one
   host whose speed drifted, can be told apart. Neither rescales a
   gated metric. *)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> "unknown"
            | line when Util.starts_with ~prefix:"model name" line -> (
                match String.index_opt line ':' with
                | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
                | None -> "unknown")
            | _ -> go ()
          in
          go ())

(* A fixed integer/float kernel, independent of the library: a linear
   congruential walk feeding a float accumulator. About 18 ms on a
   2-core Xeon VM. Returns milliseconds. *)
let calibrate () =
  let t0 = Util.now () in
  let x = ref 12345 and acc = ref 0. in
  for _ = 1 to 6_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    acc := (!acc *. 0.999) +. float_of_int (!x land 1023)
  done;
  let dt = Util.now () -. t0 in
  if Float.is_nan !acc then print_string "";
  dt *. 1e3

(* Calibration samples: where in the run, then the kernel's time on
   the harness's CPU and on the program's CPU. *)
let samples : (string * float * float) list ref = ref []

let sample where = samples := (where, calibrate (), Proc.on_child_cpu calibrate) :: !samples

let samples_json () =
  List.rev !samples
  |> List.map (fun (w, a, b) ->
         Printf.sprintf "{\"at\": %s, \"harness_ms\": %.3f, \"program_ms\": %.3f}" (Util.json_string w) a b)
  |> String.concat ", "

let fingerprint () =
  Printf.sprintf
    "{\"cpu_model\": %s, \"nproc\": %d, \"ocaml\": %s, \"flambda\": %s}"
    (Util.json_string (cpu_model ()))
    Proc.host_cpus
    (Util.json_string Sys.ocaml_version)
    (Util.json_string Build_info.flambda)
