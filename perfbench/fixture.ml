(* Inputs and in-process references. Every input is generated from the
   benchmark seed; the program under test only ever sees the resulting
   trace file or PUT lines. The engine's own seed is configuration, not
   input, and stays fixed. *)

module Engine = Rfid_core.Engine
module Event = Rfid_core.Event
module Core = Rfid_serve.Core

let engine_seed = 42
let particles = 200

(* A straight-pass warehouse scan over [objects] objects: the ground
   truth plus the noisy observation stream. *)
let scan ~objects ~rounds ~seed =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:objects () in
  let sensor = Rfid_sim.Truth_sensor.cone () in
  Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
    ~object_locs:wh.Rfid_sim.Warehouse.object_locs
    ~start:(Rfid_sim.Warehouse.reader_start wh)
    ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds)
    ~config:(Rfid_sim.Trace_gen.default_config ~sensor ())
    (Rfid_prob.Rng.create ~seed)

let world_box ~objects =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:objects () in
  Rfid_model.World.bounding_box wh.Rfid_sim.Warehouse.world

let variant_name = function
  | Rfid_core.Config.Unfactorized -> "unfactorized"
  | Rfid_core.Config.Factorized -> "factorized"
  | Rfid_core.Config.Factorized_indexed -> "indexed"
  | Rfid_core.Config.Factorized_compressed -> "compressed"

(* ---- events and accuracy ---- *)

(* One durable-log line ("t=E obj=O loc=(x, y, z) ...") back to an
   event; comments and flush markers are skipped. *)
let event_of_log_line line =
  if line = "" || line.[0] = '#' then None
  else
    match
      Scanf.sscanf line "t=%d obj=%d loc=(%f, %f, %f" (fun e o x y z ->
          Event.make ~epoch:e ~obj:o ~loc:(Rfid_geom.Vec3.make x y z) ())
    with
    | ev -> Some ev
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* One events-CSV line ("epoch,obj,x,y,z") back to an event. *)
let event_of_csv_line line =
  match String.split_on_char ',' line with
  | [ e; o; x; y; z ] -> (
      match
        (int_of_string_opt e, int_of_string_opt o, float_of_string_opt x,
         float_of_string_opt y, float_of_string_opt z)
      with
      | Some e, Some o, Some x, Some y, Some z ->
          Some (Event.make ~epoch:e ~obj:o ~loc:(Rfid_geom.Vec3.make x y z) ())
      | _ -> None)
  | _ -> None

(* Mean XY error, in feet, of emitted events against the generator's
   ground truth. *)
let err_xy_ft events trace = (Rfid_eval.Metrics.inference_error events trace).Rfid_eval.Metrics.mean_xy

(* ---- the batch replay reference ---- *)

(* What [rfid_clean replay -i FILE -n OBJECTS --variant indexed -j 1]
   prints, computed in-process through the same library calls. *)
let replay_params () =
  let sensor = Rfid_sim.Truth_sensor.cone () in
  let fitted =
    Rfid_learn.Supervised.fit_sensor ~read_prob:sensor.Rfid_sim.Truth_sensor.read_prob
      ~seed:99 ()
  in
  Rfid_model.Params.create ~sensor:fitted ()

let replay_engine ~objects ~variant ~params observations =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:objects () in
  let config =
    Rfid_core.Config.create ~variant ~num_object_particles:particles
      ~min_object_particles:particles ~resample_ess_ratio:1.0 ~num_domains:1 ()
  in
  let init_reader =
    match observations with
    | (o : Rfid_model.Types.observation) :: _ ->
        Rfid_model.Reader_state.make ~loc:o.Rfid_model.Types.o_reported_loc ~heading:0.
    | [] -> Rfid_sim.Warehouse.reader_start wh
  in
  Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params ~config ~init_reader
    ~num_objects:objects ~seed:engine_seed ()

let render_replay ~file ~n_obs events =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Printf.sprintf "# replaying %d observations from %s\n" n_obs file);
  Buffer.add_string b "epoch,obj,x,y,z\n";
  List.iter
    (fun (ev : Event.t) ->
      let l = ev.Event.ev_loc in
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%.6f,%.6f,%.6f\n" ev.Event.ev_epoch ev.Event.ev_obj
           l.Rfid_geom.Vec3.x l.Rfid_geom.Vec3.y l.Rfid_geom.Vec3.z))
    events;
  Buffer.contents b

let replay_reference ~objects ~variant ~file =
  let ic = open_in file in
  let observations =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Rfid_model.Trace_io.read_observations ic)
  in
  let engine = replay_engine ~objects ~variant ~params:(replay_params ()) observations in
  render_replay ~file ~n_obs:(List.length observations) (Engine.run engine observations)

(* ---- the serving reference ---- *)

let event_line ev = Format.asprintf "%a\n" Event.pp ev

(* An in-process Core with the server binary's fixture, recording the
   durable events log it would write into [log]. *)
let core ~objects ~variant ~log =
  let boot =
    Rfid_serve.Bootstrap.make ~objects ~seed:engine_seed ~variant ~particles ()
  in
  let hooks =
    {
      Core.no_hooks with
      Core.on_events = (fun evs -> List.iter (fun ev -> Buffer.add_string log (event_line ev)) evs);
      on_flush_mark = (fun () -> Buffer.add_string log "# flush\n");
    }
  in
  Core.create
    ~guard:(Rfid_serve.Bootstrap.fresh_guard boot)
    ~engine:(Rfid_serve.Bootstrap.fresh_engine boot)
    ~num_objects:objects ~hooks ()

(* Queries whose replies after the final SYNC must match the reference
   byte for byte: AT over a spread of ids, RANGE windows, NEAR probes,
   and the recent EVENTS history. STATS is left out: its admission
   counters restart with a recovered process by design. *)
let verification_set ~objects ~last_epoch ~seed =
  let box = world_box ~objects in
  let rng = Random.State.make [| seed; 7 |] in
  let y () =
    box.Rfid_geom.Box2.min_y
    +. Random.State.float rng (box.Rfid_geom.Box2.max_y -. box.Rfid_geom.Box2.min_y)
  in
  List.init 16 (fun i -> Printf.sprintf "AT %d" (i * objects / 16))
  @ List.init 4 (fun _ ->
        let lo = y () in
        Printf.sprintf "RANGE %.3f %.3f %.3f %.3f 0.05" box.Rfid_geom.Box2.min_x lo
          box.Rfid_geom.Box2.max_x (lo +. 8.))
  @ List.init 4 (fun _ -> Printf.sprintf "NEAR 5 2.000 %.3f" (y ()))
  @ [ Printf.sprintf "EVENTS %d" (Int.max 0 (last_epoch - 40)) ]
