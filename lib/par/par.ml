(* One process-wide set of worker domains serving every parallel map: the
   fault simulator's block deal and compaction's speculative rounds and
   waves.  One mutex guards the whole queue; slots run for milliseconds,
   so the lock is never contended on the hot path.

   Deadlock freedom does not depend on the worker count: the submitting
   domain runs slot 0 itself and then takes back its own still-unclaimed
   slots while waiting, so a submission completes even when every worker
   is busy with other submissions — or when the submission was made from
   inside a slot of another one.  Results and errors are written into
   per-submission slots by index, which makes the output independent of
   the worker count, scheduling and how many submissions are in flight. *)

(* One [map] call.  The typed work is hidden behind [run_slot], which
   stores slot [k]'s result or error itself, so the queue is untyped. *)
type sub = {
  run_slot : int -> unit;
  total : int;
  mutable next : int;  (* next unclaimed slot *)
  mutable finished : int;
}

let size = max 1 (Domain.recommended_domain_count () - 1)

let m = Mutex.create ()
let work = Condition.create ()  (* workers: a submission has claimable slots *)
let done_ = Condition.create ()  (* submitters: a slot finished *)
let queue : sub list ref = ref []  (* submissions with unclaimed slots, FIFO *)
let started = ref false

(* Claim one slot of [sub]; caller holds the lock. *)
let claim sub =
  let k = sub.next in
  sub.next <- k + 1;
  if sub.next >= sub.total then queue := List.filter (fun s -> s != sub) !queue;
  k

let finish sub k =
  sub.run_slot k;
  Mutex.lock m;
  sub.finished <- sub.finished + 1;
  if sub.finished >= sub.total then Condition.broadcast done_;
  Mutex.unlock m

let rec worker_loop () =
  Mutex.lock m;
  while !queue = [] do
    Condition.wait work m
  done;
  let sub = List.hd !queue in
  let k = claim sub in
  Mutex.unlock m;
  finish sub k;
  worker_loop ()

(* The workers are spawned on the first parallel submission and never
   joined: they park on [work] between submissions, and a parked domain
   does not hold the process open when the main domain exits.  Results
   never depend on the workers (submitters run their own slots), so a
   spawn refused at the runtime's domain limit just leaves fewer. *)
let submit sub =
  Mutex.lock m;
  if not !started then begin
    started := true;
    try
      for _ = 1 to size do
        ignore (Domain.spawn worker_loop)
      done
    with Failure _ -> ()
  end;
  queue := !queue @ [ sub ];
  Condition.broadcast work;
  Mutex.unlock m

let run n f =
  let results = Array.make n None in
  let errors = Array.make n None in
  let sub =
    { run_slot =
        (fun k ->
          match f k with
          | v -> results.(k) <- Some v
          | exception e ->
            errors.(k) <- Some (e, Printexc.get_raw_backtrace ()));
      total = n;
      (* Slot 0 is pre-claimed for the submitting domain. *)
      next = 1;
      finished = 0 }
  in
  submit sub;
  finish sub 0;
  let rec wait () =
    Mutex.lock m;
    if sub.next < sub.total then begin
      let k = claim sub in
      Mutex.unlock m;
      finish sub k;
      wait ()
    end
    else begin
      while sub.finished < sub.total do
        Condition.wait done_ m
      done;
      Mutex.unlock m
    end
  in
  wait ();
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors;
  Array.map
    (function
      | Some v -> v
      | None -> assert false)
    results

let map ~jobs n f = if jobs <= 1 || n <= 1 then Array.init n f else run n f
