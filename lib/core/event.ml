type t = {
  ev_epoch : Rfid_model.Types.epoch;
  ev_obj : int;
  ev_loc : Rfid_geom.Vec3.t;
  ev_cov : Rfid_prob.Linalg.mat option;
  ev_degraded : bool;
}

let make ~epoch ~obj ~loc ?cov ?(degraded = false) () =
  { ev_epoch = epoch; ev_obj = obj; ev_loc = loc; ev_cov = cov; ev_degraded = degraded }

let std_dev_xy t =
  match t.ev_cov with
  | None -> None
  | Some c -> Some (sqrt (Float.max 0. ((c.(0).(0) +. c.(1).(1)) /. 2.)))

let confidence_ellipse t ~level =
  match t.ev_cov with
  | None -> None
  | Some cov ->
      let loc = Rfid_geom.Vec3.to_array t.ev_loc in
      let g = Rfid_prob.Gaussian.create ~mean:loc ~cov in
      Some (Rfid_prob.Gaussian.confidence_ellipse_xy g ~level)

let pp ppf t =
  Format.fprintf ppf "@[t=%d obj=%d loc=%a%t%t@]" t.ev_epoch t.ev_obj Rfid_geom.Vec3.pp
    t.ev_loc
    (fun ppf ->
      match std_dev_xy t with
      | Some s -> Format.fprintf ppf " (sd_xy=%.3f)" s
      | None -> ())
    (fun ppf -> if t.ev_degraded then Format.fprintf ppf " [degraded]")

let of_log_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    let degraded = String.ends_with ~suffix:" [degraded]" line in
    let mk e o x y z sd =
      let cov =
        Option.map
          (fun s ->
            let v = s *. s in
            [| [| v; 0.; 0. |]; [| 0.; v; 0. |]; [| 0.; 0.; 0. |] |])
          sd
      in
      make ~epoch:e ~obj:o ~loc:(Rfid_geom.Vec3.make x y z) ?cov ~degraded ()
    in
    let scan fmt k =
      try Some (Scanf.sscanf line fmt k)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
    in
    match
      scan "t=%d obj=%d loc=(%f, %f, %f) (sd_xy=%f" (fun e o x y z s ->
          mk e o x y z (Some s))
    with
    | Some _ as ev -> ev
    | None -> scan "t=%d obj=%d loc=(%f, %f, %f" (fun e o x y z -> mk e o x y z None)
