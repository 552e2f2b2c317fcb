(** The clean output stream (§II-A): each event reports the inferred
    location of one object, with optional summary statistics of the
    posterior (the paper's "(statistics)?" field, here the 3×3
    covariance of the location estimate). Events are emitted by
    {!Engine} according to its report policy — by default a fixed delay
    after an object enters the reader's scope, which is how the paper's
    experiments run their location-update query. *)

type t = {
  ev_epoch : Rfid_model.Types.epoch;
  ev_obj : int;  (** object tag id *)
  ev_loc : Rfid_geom.Vec3.t;  (** inferred (x, y, z) *)
  ev_cov : Rfid_prob.Linalg.mat option;  (** posterior covariance, if available *)
  ev_degraded : bool;
      (** the emitting engine was in degraded mode (dead-reckoning
          through missing or rejected location fixes) at or around this
          event's epoch, so the estimate rests on the motion model more
          than on fresh evidence *)
}

val make :
  epoch:Rfid_model.Types.epoch ->
  obj:int ->
  loc:Rfid_geom.Vec3.t ->
  ?cov:Rfid_prob.Linalg.mat ->
  ?degraded:bool ->
  unit ->
  t
(** [degraded] defaults to [false]. *)

val std_dev_xy : t -> float option
(** Root of the mean of the x and y posterior variances — a scalar
    spread summary. *)

val confidence_ellipse : t -> level:float -> (float * float * float) option
(** [(semi_major, semi_minor, angle)] of the XY confidence region at
    the given coverage level — the paper's "(statistics)?" field offers
    exactly this kind of summary. [None] when the event carries no
    covariance. @raise Invalid_argument unless [0 < level < 1]. *)

val pp : Format.formatter -> t -> unit

val of_log_line : string -> t option
(** Parse one line printed by {!pp} back into an event; [None] for a
    blank line, a ["#"] comment or marker line, and anything else that
    is not an event. {!pp} prints at fixed 3-decimal precision, so the
    covariance comes back lossy — only [sd_xy] survives, as a diagonal
    — but re-printing the parsed event yields the original line byte
    for byte. Recovery uses this to read a durable events log back. *)
