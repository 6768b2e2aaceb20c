module Timeslice = Kflex_runtime.Timeslice
module Vm = Kflex_runtime.Vm

(* A slot's state word packs the invocation's generation (bumped by every
   [arm]) with its phase in the low two bits. Every transition is one
   atomic store or CAS; there is no lock anywhere on the path. *)
let idle = 0
let running = 1
let cancelling = 2
let cancelled = 3
let[@inline always] phase w = w land 3
let[@inline always] with_phase w p = w land lnot 3 lor p

type slot = {
  word : int Atomic.t;
  deadline : Float.Array.t;  (* one unboxed float, valid while running *)
  mutable flag : bool ref;  (* the running extension's cancel flag *)
}

type watched = { ts : Timeslice.t; mutable forced : bool }

type t = {
  slots : slot array;
  watches : watched list Atomic.t;
  cancellations : int Atomic.t;
  preemptions : int Atomic.t;
}

let create ?(slots = 1) () =
  if slots < 1 then invalid_arg "Reaper.create: slots < 1";
  {
    slots =
      Array.init slots (fun _ ->
          {
            word = Atomic.make idle;
            deadline = Float.Array.make 1 0.0;
            flag = ref false;
          });
    watches = Atomic.make [];
    cancellations = Atomic.make 0;
    preemptions = Atomic.make 0;
  }

let slot t i = t.slots.(i)

let[@inline always] arm s ext ~deadline =
  let w = Atomic.get s.word in
  if phase w <> idle then invalid_arg "Reaper.arm: slot already armed";
  Float.Array.unsafe_set s.deadline 0 deadline;
  s.flag <- Vm.cancel_flag ext;
  (* publishes the deadline and flag written above *)
  Atomic.set s.word (with_phase (w + 4) running)

(* Back to idle. A cancellation caught mid-flight ([cancelling]) is waited
   out — the reaper's next step is one store — so the flag it set is
   cleared here, before the shard can arm the slot for a later invocation.
   A cancel that landed after the invocation's last cancellation point
   ([finished]) never took effect and is not counted. *)
let disarm t s ~finished =
  let rec go () =
    let w = Atomic.get s.word in
    let p = phase w in
    if p = running then begin
      if not (Atomic.compare_and_set s.word w (with_phase w idle)) then go ()
    end
    else if p = cancelling then begin
      Domain.cpu_relax ();
      go ()
    end
    else if p = cancelled then begin
      s.flag := false;
      if not finished then Atomic.incr t.cancellations;
      Atomic.set s.word (with_phase w idle)
    end
  in
  go ()

let expired s ~now =
  let w = Atomic.get s.word in
  if phase w = running && now > Float.Array.get s.deadline 0 then w else -1

(* The CAS fails unless the slot still holds invocation [w], running: a
   scan that read the word before a disarm/re-arm can never touch the
   later invocation. *)
let cancel_if s w =
  phase w = running
  && Atomic.compare_and_set s.word w (with_phase w cancelling)
  && begin
       s.flag := true;
       Atomic.set s.word (with_phase w cancelled);
       true
     end

let watch t ts =
  let w = { ts; forced = false } in
  let rec go () =
    let l = Atomic.get t.watches in
    if not (Atomic.compare_and_set t.watches l (w :: l)) then go ()
  in
  go ()

let unwatch t ts =
  let rec go () =
    let l = Atomic.get t.watches in
    if
      not
        (Atomic.compare_and_set t.watches l
           (List.filter (fun w -> w.ts != ts) l))
    then go ()
  in
  go ()

let scan t ~now =
  (* §4.4: a lock holder past its time slice is preempted once — the
     extension spinning on its lock then stalls until the watchdog cancels
     it below *)
  List.iter
    (fun w ->
      if (not w.forced) && Timeslice.should_preempt w.ts ~now then begin
        ignore (Timeslice.force_preempt w.ts : Timeslice.t);
        w.forced <- true;
        Atomic.incr t.preemptions
      end)
    (Atomic.get t.watches);
  (* §4.3: invocations past their deadline get cancellation injected; the
     extension faults at its next cancellation point and unwinds through
     the static object table *)
  Array.iter
    (fun s ->
      let w = expired s ~now in
      if w >= 0 then ignore (cancel_if s w : bool))
    t.slots

let cancellations t = Atomic.get t.cancellations
let preemptions t = Atomic.get t.preemptions
