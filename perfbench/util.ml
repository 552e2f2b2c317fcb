(* Small helpers shared by every workload: clocks, files, order
   statistics and the run's tally of attempted and failed operations. *)

let now = Unix.gettimeofday

(* Progress on stderr: each phase with the seconds since the start. *)
let t_start = now ()
let phase name = Printf.eprintf "perfbench: %7.2fs %s\n%!" (now () -. t_start) name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let copy_file src dst = write_file dst (read_file src)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

(* ---- order statistics ---- *)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; nan when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = Int.min (int_of_float pos) (n - 2) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let quantile l q = quantile_sorted (sorted_of_list l) q
let median l = quantile l 0.5

let mean l =
  match l with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Median of per-segment means: each segment pools several samples
   (stable against the bimodal spawn times), and the median across
   segments discards one drifted stretch of the run. *)
let median_of_means segments =
  median (List.filter_map (function [] -> None | s -> Some (mean s)) segments)

(* ---- the run's operation tally ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let attempt () = tally.attempted <- tally.attempted + 1

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      tally.failed <- tally.failed + 1;
      prerr_endline ("perfbench: FAILED: " ^ msg))
    fmt

(* One checked operation: counts as attempted, and as failed unless
   [ok]. *)
let check ok fmt =
  attempt ();
  Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt

(* ---- JSON output ---- *)

(* Non-finite values print as null, which the result check rejects. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
