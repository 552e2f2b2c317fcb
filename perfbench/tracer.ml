(* In-memory spans for the traced run. A span is opened by the harness
   around a call into one layer's public function and records (name,
   start, end, parent). Time the library spends inside a call on work
   of another layer, which the harness cannot wrap, is taken from the
   stage spans the library already keeps in [Rfid_obs.Metrics.global]
   (engine step, ingest guard, query maintenance) and booked as
   children of the enclosing span. Self time of a span is its duration
   minus its children's. *)

module Obs = Rfid_obs.Metrics

type span = {
  name : string;
  parent : int;  (* index into [spans], -1 for a root *)
  t0 : float;
  mutable t1 : float;
  mutable child_s : float;  (* time covered by children, real or read from the registry *)
}

let enabled = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack = ref []

(* Registry stage spans booked as children of the enclosing harness span:
   (layer, histograms whose summed time belongs to it). *)
let registry_layers =
  [
    ("engine", [ "stage.step"; "stage.step_degraded" ]);
    ("ingest", [ "stage.ingest" ]);
    ("query", [ "stage.query_maintain" ]);
  ]

let registry_handles =
  lazy
    (List.map
       (fun (layer, names) -> (layer, List.map (fun n -> Obs.histogram Obs.global n) names))
       registry_layers)

let registry_sums () =
  List.map
    (fun (layer, hs) -> (layer, List.fold_left (fun a h -> a +. Obs.histogram_sum h) 0. hs))
    (Lazy.force registry_handles)

(* Per-layer time read from the registry while a harness span was open. *)
let registry_time : (string, float) Hashtbl.t = Hashtbl.create 8

let reset () =
  spans := [||];
  count := 0;
  stack := [];
  Hashtbl.reset registry_time

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (Int.max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

(* [with_ name f]: run [f] under a span. With [~registry:true] the
   library's own stage timings accrued during [f] are booked as
   children (used around calls whose inner layers the harness cannot
   wrap, such as Core.handle_line or Wal.replay). *)
let with_ ?(registry = false) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let before = if registry then registry_sums () else [] in
    let id = push { name; parent; t0 = Util.now (); t1 = nan; child_s = 0. } in
    stack := id :: !stack;
    let finish () =
      let s = !spans.(id) in
      s.t1 <- Util.now ();
      stack := List.tl !stack;
      if registry then
        List.iter2
          (fun (layer, b) (_, a) ->
            let d = a -. b in
            if d > 0. then begin
              s.child_s <- s.child_s +. d;
              Hashtbl.replace registry_time layer
                (d +. Option.value ~default:0. (Hashtbl.find_opt registry_time layer))
            end)
          before (registry_sums ());
      if parent >= 0 then
        let p = !spans.(parent) in
        p.child_s <- p.child_s +. (s.t1 -. s.t0)
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Durations (seconds) of every span named [name]. *)
let durations name =
  let acc = ref [] in
  for i = !count - 1 downto 0 do
    let s = !spans.(i) in
    if s.name = name then acc := (s.t1 -. s.t0) :: !acc
  done;
  !acc

(* Self time per layer (the span name up to its first dot), with the
   registry-read time credited to its own layer. The root spans' self
   time is the unattributed remainder. Returns (shares, root_total). *)
let attribution () =
  let self : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let add k v = Hashtbl.replace self k (v +. Option.value ~default:0. (Hashtbl.find_opt self k)) in
  let root_total = ref 0. in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    let d = s.t1 -. s.t0 in
    if s.parent < 0 then begin
      root_total := !root_total +. d;
      add "unattributed" (d -. s.child_s)
    end
    else add (layer_of s.name) (d -. s.child_s)
  done;
  Hashtbl.iter add registry_time;
  let total = !root_total in
  (Hashtbl.fold (fun k v acc -> (k, v /. total) :: acc) self [], total)

(* Write the spans as JSON lines: name, start and end (seconds since
   the first span), parent index. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let base = if !count > 0 then !spans.(0).t0 else 0. in
      for i = 0 to !count - 1 do
        let s = !spans.(i) in
        Printf.fprintf oc "{\"id\":%d,\"name\":%s,\"start\":%.9f,\"end\":%.9f,\"parent\":%d}\n" i
          (Util.json_string s.name) (s.t0 -. base) (s.t1 -. base) s.parent
      done)
