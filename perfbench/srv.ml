(* One [rfid_clean serve] process: start (fresh or [--recover]) timed to
   its greeting, kill, or stop gracefully with its peak RSS. *)

type fixture = {
  objects : int;
  variant : Rfid_core.Config.variant;
  checkpoint_every : int;  (* 0: no durable files at all *)
  wal_fsync_every : int;
}

type t = {
  pid : int;
  out : Unix.file_descr;  (* the server's stdout pipe *)
  port : int;
  conn : Client.t;
  dir : string;
  setup_s : float;  (* spawn to greeting *)
}

let wal dir = Filename.concat dir "wal.log"
let events dir = Filename.concat dir "events.log"
let ckpt dir = Filename.concat dir "ck"

let args ?(checkpoint_every = 0) fx ~dir ~recover =
  let checkpoint_every = if checkpoint_every > 0 then checkpoint_every else fx.checkpoint_every in
  [
    "serve"; "--port"; "0";
    "--objects"; string_of_int fx.objects;
    "--seed"; string_of_int Fixture.engine_seed;
    "--variant"; Fixture.variant_name fx.variant;
    "--particles"; string_of_int Fixture.particles;
    "-j"; "1";
  ]
  @ (if fx.checkpoint_every > 0 then
       [
         "--wal"; wal dir;
         "--events"; events dir;
         "--checkpoint"; ckpt dir;
         "--checkpoint-every"; string_of_int checkpoint_every;
         "--wal-fsync-every"; string_of_int fx.wal_fsync_every;
       ]
     else [])
  @ if recover then [ "--recover" ] else []

let expected_greeting fx =
  Printf.sprintf "RFID-SERVE/1 READY variant=%s objects=%d\n" (Fixture.variant_name fx.variant)
    fx.objects

let start ?checkpoint_every ~cli fx ~dir ~recover =
  let t0 = Util.now () in
  let pid, out =
    Proc.spawn ~exe:cli ~args:(args ?checkpoint_every fx ~dir ~recover) ~stdout_to:`Pipe
      ~stderr_to:(Filename.concat dir "server.err")
  in
  let out = Option.get out in
  let port, conn =
    try
      let port = Proc.await_port ~pid ~fd:out ~deadline:(t0 +. 120.) in
      (port, Client.connect port)
    with e ->
      (try Proc.kill_and_reap pid with _ -> ());
      Unix.close out;
      raise e
  in
  let greeting = Client.read_greeting conn in
  let setup_s = Util.now () -. t0 in
  Util.check (greeting = expected_greeting fx) "greeting %S" greeting;
  { pid; out; port; conn; dir; setup_s }

let kill s =
  Client.close s.conn;
  Proc.kill_and_reap s.pid;
  Unix.close s.out

(* QUIT, then SIGTERM: the server drains and must exit 0. *)
let stop s =
  Util.check (Client.request s.conn "QUIT" = "OK bye\n") "QUIT";
  Client.close s.conn;
  Unix.kill s.pid Sys.sigterm;
  let st = Proc.wait s.pid in
  Unix.close s.out;
  Util.check (st = Unix.WEXITED 0) "server exit: %s" (Proc.pp_status st)

let copy_state ~src ~dst =
  Unix.mkdir dst 0o755;
  List.iter
    (fun f ->
      let p = Filename.concat src f in
      if Sys.file_exists p && not (Sys.is_directory p) then Util.copy_file p (Filename.concat dst f))
    (Array.to_list (Sys.readdir src))

(* Start [n] servers with [--recover] over fresh copies of the state in
   [prep], each killed once its greeting arrives; returns their setup
   times. The last one is kept running when [keep]. *)
let recover_spawns ~cli fx ~prep ~scratch ~tag ~n ~keep =
  let times = ref [] and kept = ref None in
  for i = 1 to n do
    let dir = Filename.concat scratch (Printf.sprintf "%s-%d" tag i) in
    copy_state ~src:prep ~dst:dir;
    let s = start ~cli fx ~dir ~recover:true in
    times := s.setup_s :: !times;
    if keep && i = n then kept := Some s
    else begin
      kill s;
      Util.rm_rf dir
    end
  done;
  (List.rev !times, !kept)

(* Replies to the verification set, in order. *)
let verify conn queries = List.map (fun q -> (q, Client.request conn q)) queries

let compare_replies ~what live reference =
  List.iter2
    (fun (q, got) (_, want) -> Util.check (got = want) "%s: %s differs: %S vs %S" what q got want)
    live reference
