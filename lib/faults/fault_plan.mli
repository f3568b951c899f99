(** Deterministic fault injection for the simulated kernel.

    The paper's bookmarking collector is built for an {e unreliable}
    channel: eviction notices are asynchronous signals that can arrive
    late, be dropped under load, or race with a running collection
    (§3.4), and the swap device can fill or fail transiently. A
    [Fault_plan] is a seeded schedule of such misbehaviours; the VMM and
    swap device consult it at each notification and I/O point, so the same
    seed and spec reproduce the exact same fault schedule on every run.

    The plan is pure policy: it only answers "what goes wrong now?" and
    counts what it injected. The mechanisms that degrade gracefully in
    response live in {!Vmsim.Vmm}, {!Vmsim.Swap} and the collectors. *)

type spec = {
  drop_eviction : float;  (** P(drop a pre-eviction notice) *)
  drop_resident : float;  (** P(drop a made-resident notice) *)
  delay_notice : float;  (** P(queue a notice for late delivery) *)
  duplicate_notice : float;  (** P(deliver a notice a second time, late) *)
  reorder : float;  (** P(a late-delivery flush runs in reverse order) *)
  swap_write_error : float;  (** P(transient I/O error on a swap write) *)
  swap_read_error : float;  (** P(transient I/O error on a swap read) *)
  swap_full_episodes : int;  (** scripted device-full episodes *)
  swap_full_len : int;  (** writes rejected per episode *)
  swap_full_every : int;  (** mean successful writes between episodes *)
  spike_count : int;  (** scripted memory-pressure spikes *)
  spike_pages : int;  (** frames pinned per spike *)
}

val none : spec
(** All probabilities zero, no episodes, no spikes. *)

val spec_of_string : string -> (spec, string) result
(** Parse a plan like ["drop-evict=0.3,swap-full=2,spikes=1"]. Keys:
    [drop-evict] (alias [drop]), [drop-resident], [delay], [dup],
    [reorder], [swap-write-err], [swap-read-err], [swap-full],
    [swap-full-len], [swap-full-every], [spikes], [spike-pages]. The
    string ["none"] is {!none}. *)

val spec_to_string : spec -> string
(** Round-trips through {!spec_of_string}; ["none"] when nothing is
    enabled. *)

type stats = {
  mutable dropped_eviction : int;
  mutable dropped_resident : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable reordered_flushes : int;
  mutable swap_write_errors : int;
  mutable swap_read_errors : int;
  mutable swap_full_rejections : int;
  mutable spikes_applied : int;
}

val injected_total : stats -> int
(** Sum of every injected-fault counter. *)

val pp_stats : Format.formatter -> stats -> unit

type t

val create : seed:int -> spec -> t

val spec : t -> spec

val stats : t -> stats
(** Counters of faults actually injected so far. *)

(** {1 Decision points} *)

type notice = Eviction | Resident

type notice_decision = Deliver | Drop | Delay | Duplicate
(** [Duplicate] means: deliver now {e and} once more at the next flush. *)

val on_notice : t -> notice -> notice_decision

val reorder_pending : t -> bool
(** Should this flush of delayed notices run in reverse order? *)

type swap_decision = Proceed | Io_error | Device_full

val on_swap_write : t -> swap_decision

val on_swap_read : t -> swap_decision
(** Never [Device_full]. Read errors are guaranteed transient: the plan
    never injects more than two consecutive ones, so any bounded retry of
    three or more attempts makes progress. *)

val spikes : t -> (float * float * int) list
(** Scripted pressure spikes as [(from_progress, until_progress, pages)]
    triples, fixed at {!create} from the seed. *)

val note_spike_applied : t -> unit
(** Record that a scripted spike actually pinned memory. *)
