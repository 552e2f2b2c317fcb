(* A non-blocking RFID-SERVE/1 client connection. Requests are written
   as soon as they are made (buffered when the socket is full, so a
   stalled server never stalls the generator) and replies are matched
   to requests in order, one reply per request, with the body lines an
   "OK n" header announces for RANGE/NEAR/EVENTS/STATS. *)

type pending = { verb : string; on_reply : string -> float -> unit }

type t = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  mutable partial : string;  (* bytes after the last complete line *)
  pending : pending Queue.t;
  mutable body : (pending * Buffer.t * int) option;  (* reply awaiting body lines *)
  mutable greeting : string option;
  mutable closed : bool;
}

(* Recording for the traced run: every request line sent, grouped into
   chunks the way they reach the server (lines sent between two polls
   travel together), so the in-process replay can feed them alike. *)
let recording = ref false
let chunks : string list list ref = ref []
let current : string list ref = ref []

let cut_chunk () =
  if !current <> [] then begin
    chunks := List.rev !current :: !chunks;
    current := []
  end

let recorded () =
  cut_chunk ();
  let r = List.rev !chunks in
  chunks := [];
  recording := false;
  r

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 65536;
    out_off = 0;
    partial = "";
    pending = Queue.create ();
    body = None;
    greeting = None;
    closed = false;
  }

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let outstanding c = Queue.length c.pending + match c.body with Some _ -> 1 | None -> 0
let wants_write c = Buffer.length c.out > c.out_off

let flush_out c =
  if wants_write c then
    match
      Unix.write_substring c.fd (Buffer.contents c.out) c.out_off
        (Buffer.length c.out - c.out_off)
    with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let verb_of line =
  match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line

(* Queue [line] (no trailing newline) and try to write it now. *)
let send c line on_reply =
  if !recording then current := line :: !current;
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  Queue.add { verb = verb_of line; on_reply } c.pending;
  flush_out c

let has_body verb = match verb with "RANGE" | "NEAR" | "EVENTS" | "STATS" -> true | _ -> false

let on_line c line t =
  match c.body with
  | Some (p, b, left) ->
      Buffer.add_string b line;
      Buffer.add_char b '\n';
      if left = 1 then begin
        c.body <- None;
        p.on_reply (Buffer.contents b) t
      end
      else c.body <- Some (p, b, left - 1)
  | None -> (
      if c.greeting = None then c.greeting <- Some (line ^ "\n")
      else
        match Queue.take_opt c.pending with
        | None -> failwith (Printf.sprintf "unsolicited reply %S" line)
        | Some p ->
            let n =
              if has_body p.verb && Util.starts_with ~prefix:"OK " line then
                int_of_string_opt (String.sub line 3 (String.length line - 3))
                |> Option.value ~default:0
              else 0
            in
            if n = 0 then p.on_reply (line ^ "\n") t
            else begin
              let b = Buffer.create (64 * (n + 1)) in
              Buffer.add_string b line;
              Buffer.add_char b '\n';
              c.body <- Some (p, b, n)
            end)

let chunk = Bytes.create 65536

let read_available c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "server closed the connection"
  | n ->
      let t = Util.now () in
      let data = c.partial ^ Bytes.sub_string chunk 0 n in
      let parts = String.split_on_char '\n' data in
      let rec go = function
        | [ last ] -> c.partial <- last
        | l :: rest ->
            on_line c l t;
            go rest
        | [] -> c.partial <- ""
      in
      go parts
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* One select pass over [conns], waiting at most [timeout] seconds. *)
let poll conns timeout =
  if !recording then cut_chunk ();
  let rd = List.map (fun c -> c.fd) conns in
  let wr = List.filter_map (fun c -> if wants_write c then Some c.fd else None) conns in
  let r, w, _ =
    try Unix.select rd wr [] (Float.max 0. timeout)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter (fun c -> if List.mem c.fd w then flush_out c) conns;
  List.iter (fun c -> if List.mem c.fd r then read_available c) conns

external spin_until : Unix.file_descr array -> float -> bool = "pb_spin_until"

(* Wait without sleeping until a reply arrives on [conns] or the clock
   reaches [deadline], then take in whatever arrived. *)
let spin conns deadline =
  if List.exists wants_write conns then poll conns 0.
  else if spin_until (Array.of_list (List.map (fun c -> c.fd) conns)) deadline then poll conns 0.

(* Pump until [cond ()] holds; fails after [timeout] seconds. *)
let pump_until ?(timeout = 60.) conns cond =
  let deadline = Util.now () +. timeout in
  while not (cond ()) do
    let left = deadline -. Util.now () in
    if left <= 0. then failwith "timed out waiting for replies";
    poll conns (Float.min left 0.5)
  done

let read_greeting c =
  pump_until [ c ] (fun () -> c.greeting <> None);
  Option.get c.greeting

(* Blocking request: the full reply text. *)
let request ?timeout c line =
  let reply = ref None in
  send c line (fun r _ -> reply := Some r);
  pump_until ?timeout [ c ] (fun () -> !reply <> None);
  Option.get !reply

(* Wait for every outstanding reply. *)
let drain ?timeout conns = pump_until ?timeout conns (fun () -> List.for_all (fun c -> outstanding c = 0) conns)
