(* The load generator: a single process driving a real
   [rfid_clean serve] over at most two loopback connections.

   - [burst] is a closed loop with a window: batches of PUTs, each
     followed by a SYNC, at most [window] batches outstanding. It
     measures ingest throughput and PUT-to-visible lag.
   - [open_loop] sends on a fixed schedule regardless of replies: a
     writer (PUT then SYNC) at one rate and a reader (RANGE/NEAR/AT) at
     another. Latency is timed from each request's due time, so a stall
     shows in every request due during it, and the generator's own
     lateness (send time minus due time) is reported beside it.

   A reply other than the expected OK (a BUSY, an ERR) is a failed
   operation; a reply that never comes aborts the run. *)

(* Samples are (time, value) pairs: the time a request was sent or
   due, and its lag or latency in seconds. *)
type stats = {
  lags : (float * float) list ref;  (* PUT send (or due) -> covering SYNC reply *)
  lat : (string, (float * float) list ref) Hashtbl.t;  (* verb -> latency from due time *)
  late : float list ref;  (* generator lateness, s *)
  mutable sent : int;
  mutable busy : int;
}

let new_stats () = { lags = ref []; lat = Hashtbl.create 4; late = ref []; sent = 0; busy = 0 }

let samples st verb = match Hashtbl.find_opt st.lat verb with Some l -> !l | None -> []
let latencies st verb = List.map snd (samples st verb)

let record_lat st verb due v =
  match Hashtbl.find_opt st.lat verb with
  | Some l -> l := (due, v) :: !l
  | None -> Hashtbl.add st.lat verb (ref [ (due, v) ])

(* The median over [segments] equal stretches of the run of each
   stretch's [q]-quantile: stretches the host slowed down move the
   result only once they are half of them. *)
let segmented_quantile ?(segments = 4) samples q =
  match samples with
  | [] -> nan
  | _ ->
      let t0 = List.fold_left (fun a (t, _) -> Float.min a t) infinity samples in
      let t1 = List.fold_left (fun a (t, _) -> Float.max a t) neg_infinity samples in
      let width = Float.max 1e-9 ((t1 -. t0) /. float_of_int segments) in
      let buckets = Array.make segments [] in
      List.iter
        (fun (t, v) ->
          let k = Int.min (segments - 1) (int_of_float ((t -. t0) /. width)) in
          buckets.(k) <- v :: buckets.(k))
        samples;
      Array.to_list buckets |> List.filter (( <> ) []) |> List.map (fun b -> Util.quantile b q) |> Util.median

let is_ok r = Util.starts_with ~prefix:"OK" r

(* Count the request and judge its reply. *)
let judged st what on_ok reply t =
  Util.attempt ();
  if Util.starts_with ~prefix:"BUSY" reply then st.busy <- st.busy + 1;
  if is_ok reply then on_ok t
  else Util.fail "%s -> %S" what (String.trim reply)

let batch = 32
let window = 2

(* Feed [lines.(from ..)] as PUT batches. Returns the epochs
   acknowledged and, per SYNC, its reply time and the epochs it covered,
   starting with (first send, 0). *)
let burst st conn lines ~from =
  let n = Array.length lines in
  let next = ref from and inflight = ref 0 and acked = ref 0 in
  let marks = ref [] and progress = ref (Util.now ()) in
  let send_batch () =
    let t = Util.now () in
    if !marks = [] then marks := [ (t, 0) ];
    let k = Int.min batch (n - !next) in
    for i = !next to !next + k - 1 do
      st.sent <- st.sent + 1;
      Client.send conn ("PUT " ^ lines.(i)) (judged st "PUT" ignore)
    done;
    st.sent <- st.sent + 1;
    Client.send conn "SYNC" (fun reply t' ->
        decr inflight;
        progress := t';
        judged st "SYNC"
          (fun t' ->
            for _ = 1 to k do
              st.lags := (t, t' -. t) :: !(st.lags)
            done;
            acked := !acked + k;
            marks := (t', k) :: !marks)
          reply t');
    next := !next + k;
    incr inflight
  in
  while !next < n || !inflight > 0 do
    while !inflight < window && !next < n do
      send_batch ()
    done;
    if Util.now () > !progress +. 60. then failwith "burst: replies timed out";
    (* Busy-wait, so the next batch follows a SYNC reply at once. *)
    Client.spin [ conn ] (Util.now () +. 0.5)
  done;
  (!acked, List.rev !marks)

(* Epochs per second over each of [segments] consecutive stretches of a
   burst's SYNC marks. The workloads report the median stretch, so a
   stretch the host slowed down moves the result no more than any other
   stretch does. *)
let segment_rates ?(segments = 8) marks =
  let a = Array.of_list marks in
  let n = Array.length a - 1 in
  let segments = Int.max 1 (Int.min segments n) in
  List.init segments (fun i ->
      let lo = i * n / segments and hi = (i + 1) * n / segments in
      let k = ref 0 in
      for j = lo + 1 to hi do
        k := !k + snd a.(j)
      done;
      float_of_int !k /. (fst a.(hi) -. fst a.(lo)))

type writer = { w_conn : Client.t; w_rate : float; w_lines : string array; w_from : int }
type reader = { r_conn : Client.t; r_rate : float; r_queries : string array }

(* Returns the number of epochs the writer sent. [during] is called
   once per pass with the elapsed time (the open-loop self-test uses it
   to stop and continue the server). *)
let open_loop ?(during = fun _ -> ()) st ~writer ~reader ~duration =
  let t0 = Util.now () in
  let t_end = t0 +. duration in
  let wi = ref 0 and ri = ref 0 in
  let w_due () =
    match writer with
    | Some w when w.w_from + !wi < Array.length w.w_lines -> t0 +. (float_of_int !wi /. w.w_rate)
    | _ -> infinity
  in
  let r_due () =
    match reader with Some r -> t0 +. (float_of_int !ri /. r.r_rate) | None -> infinity
  in
  let conns =
    List.filter_map Fun.id
      [ Option.map (fun w -> w.w_conn) writer; Option.map (fun r -> r.r_conn) reader ]
  in
  let continue = ref true in
  while !continue do
    let now = Util.now () in
    during (now -. t0);
    let wd = w_due () and rd = r_due () in
    let due = Float.min wd rd in
    if due >= t_end then continue := false
    else if due <= now then begin
      st.late := (now -. due) :: !(st.late);
      if wd <= rd then begin
        let w = Option.get writer in
        st.sent <- st.sent + 2;
        Client.send w.w_conn ("PUT " ^ w.w_lines.(w.w_from + !wi)) (judged st "PUT" ignore);
        Client.send w.w_conn "SYNC"
          (judged st "SYNC" (fun t -> st.lags := (due, t -. due) :: !(st.lags)));
        incr wi
      end
      else begin
        let r = Option.get reader in
        let q = r.r_queries.(!ri mod Array.length r.r_queries) in
        let verb = Client.verb_of q in
        st.sent <- st.sent + 1;
        Client.send r.r_conn q (judged st verb (fun t -> record_lat st verb due (t -. due)));
        incr ri
      end
    end
    else
      (* Spin until the next due time rather than sleep in select: a
         reply is then stamped when it arrives, not when the generator
         wakes. The generator owns one core; the server has the other. *)
      Client.spin conns due
  done;
  Client.drain ~timeout:60. conns;
  !wi

(* Seeded read mix over a warehouse of [objects] objects: RANGE,
   NEAR and AT in equal shares. RANGE windows span the aisle's x extent
   and 1/8 of the 500-object warehouse's y extent, as in the in-repo
   serving bench, so answer volume tracks local density. AT asks only
   for [known] objects (read at least once in the fed epochs). *)
let query_mix ~objects ~known ~seed ~n =
  let box = Fixture.world_box ~objects in
  let ref_box = Fixture.world_box ~objects:500 in
  let h = (ref_box.Rfid_geom.Box2.max_y -. ref_box.Rfid_geom.Box2.min_y) /. 8. in
  let rng = Random.State.make [| seed; 11 |] in
  let y_lo = box.Rfid_geom.Box2.min_y and y_hi = box.Rfid_geom.Box2.max_y in
  Array.init n (fun i ->
      match i mod 3 with
      | 0 ->
          let lo = y_lo +. Random.State.float rng (Float.max 0. (y_hi -. y_lo -. h)) in
          Printf.sprintf "RANGE %.3f %.3f %.3f %.3f 0.05" box.Rfid_geom.Box2.min_x lo
            box.Rfid_geom.Box2.max_x (lo +. h)
      | 1 ->
          Printf.sprintf "NEAR 5 %.3f %.3f"
            (box.Rfid_geom.Box2.min_x
            +. Random.State.float rng (box.Rfid_geom.Box2.max_x -. box.Rfid_geom.Box2.min_x))
            (y_lo +. Random.State.float rng (y_hi -. y_lo))
      | _ -> Printf.sprintf "AT %d" known.(Random.State.int rng (Array.length known)))
