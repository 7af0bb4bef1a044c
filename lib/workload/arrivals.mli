(** Open-loop arrival schedules for the serving benchmarks.

    A closed-loop client waits for each answer before sending the next
    query, so it can never drive the service past its capacity — queueing
    collapse is invisible to it.  Production traffic does not wait.  This
    module generates {e open-loop} arrival processes: a timestamped
    schedule of submission offsets, fixed up front and deterministic per
    seed, that a load driver replays against the wall clock regardless of
    how the service is coping.

    Everything here is pure bookkeeping over {!Jp_util.Rng} — no clock,
    no sleeping — so schedules are exactly reproducible and unit-testable;
    {!drive} takes its clock and sleeper as arguments (the CLI passes
    [Jp_util.Timer.now] and [Unix.sleepf], tests pass a fake clock).
    {!Jp_bsi.Bsi.simulate} consumes the same fixed-rate schedule, so the
    repository has one seeded arrival implementation. *)

type process =
  | Fixed_rate  (** query [i] arrives exactly at [i / rate] seconds *)
  | Poisson
      (** i.i.d. exponential interarrivals with mean [1 / rate] — the
          memoryless arrival stream of a large independent user
          population; bursts and lulls are part of the draw *)

val process_to_string : process -> string

val schedule :
  ?process:process -> ?seed:int -> rate:float -> count:int -> unit -> float array
(** [schedule ~rate ~count ()] is the nondecreasing array of [count]
    arrival offsets in seconds from the stream's start.  [process]
    defaults to {!Fixed_rate}, whose offsets are exactly [i /. rate]
    regardless of [seed]; {!Poisson} draws its interarrivals from
    [Rng.create seed] (default seed 0), so equal seeds yield identical
    schedules.  Raises [Invalid_argument] when [rate <= 0] or
    [count < 0]. *)

val sweep : lo:float -> hi:float -> steps:int -> float array
(** [sweep ~lo ~hi ~steps] is a geometric ladder of [steps] arrival
    rates from [lo] to [hi] inclusive — the x-axis of a saturation
    sweep, equal ratio between consecutive rates so the knee is
    straddled at every scale.  [steps = 1] yields [[| hi |]].  Raises
    [Invalid_argument] when [lo <= 0], [hi < lo] or [steps < 1]. *)

val drive :
  now:(unit -> float) ->
  sleep:(float -> unit) ->
  schedule:float array ->
  (int -> unit) ->
  float
(** [drive ~now ~sleep ~schedule submit] replays the schedule in real
    time: for each index [i] in order it waits until [start +.
    schedule.(i)] (where [start = now ()] at entry) and calls
    [submit i], {e without} waiting for anything the submission kicked
    off — the open-loop discipline.  A submission running behind the
    schedule is issued immediately (no sleep), so sustained slowness
    shows up as queueing in the system under test, not as a stretched
    schedule.  Returns [start], letting the caller compute each query's
    lateness and the run's makespan on the same clock. *)
