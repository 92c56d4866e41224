(* Shared run state: block samples, operation accounting and the
   series abstraction every measurement is written in. *)

let now_ns = Spiral_util.Trace.now_ns
let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")
let since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* A series runs one block per round; blocks of all series interleave. *)
type series = { name : string; block : unit -> unit }

let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let add key v =
  match Hashtbl.find_opt samples key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add samples key (ref [ v ])

let get key = match Hashtbl.find_opt samples key with Some l -> !l | None -> []

(* The per-block figure a series reports.  Single-threaded work takes the
   lowest tenth of its block times: host phases make its distribution
   two-mode, and the fast mode is the code's own speed.  Work that crosses
   cores takes the median: its fast tail is the blocks where the host
   happened to run both vCPUs at once, which varies from run to run,
   while its median repeats (over ten runs of small-1d the spread of par2
   fell from 0.21 at the lowest tenth to 0.09 at the median).  The
   daemon's closed loop takes the lowest tenth again: its round trips are
   wake-ups of parked threads, which slow host phases stretch, and over
   five small-1d runs in such a phase its rate ranged 1.49× at the median
   and 1.15× at the lowest tenth. *)
let estimate key =
  let kind = match String.index_opt key '/' with Some i -> String.sub key 0 i | None -> key in
  let cross = [ "par2"; "parexec"; "batch8" ] in
  (if List.mem kind cross then Stats.median else Stats.low) (get key)
let attempted = ref 0
let failed = ref 0
let first_failure = ref ""

let record ~ops ~what ok =
  attempted := !attempted + ops;
  if not ok then begin
    failed := !failed + ops;
    if !first_failure = "" then first_failure := what
  end

let verdict ~ops site (v : Refcheck.verdict) =
  record ~ops ~what:(site ^ ": " ^ v.Refcheck.what) v.Refcheck.ok

(* Under --corrupt the first output each check site sees is perturbed, to
   show that a wrong output is counted as failed. *)
let corrupt = ref false
let corrupted : (string, unit) Hashtbl.t = Hashtbl.create 16

let seen site (y : float array) =
  if !corrupt && not (Hashtbl.mem corrupted site) then begin
    Hashtbl.add corrupted site ();
    let y = Array.copy y in
    y.(0) <- y.(0) +. 1.0;
    y
  end
  else y

let block_target = 0.003

(* Calls per block so that a block lasts about [block_target]. *)
let calibrate ?(target = block_target) f =
  f ();
  let t0 = now_ns () in
  f ();
  let t = since t0 in
  max 1 (int_of_float (target /. Float.max t 1e-9))

(* One block: [reps] timed calls, the mean per call added to [key].
   Short calls (several per block) get one untimed call first, which
   re-pins a pool another series took; for calls of a block's length or
   more that cost is under a few percent and is kept. *)
let timed key ~reps f =
  if reps > 1 then f ();
  let t0 = now_ns () in
  for _ = 1 to reps do
    f ()
  done;
  add key (since t0 /. float_of_int reps)

(* Blocks rotate over the instances of a series, each with its own plan
   clone and buffers: where a buffer lands in memory can make a parallel
   plan twice as slow (cache lines shared across the worker split), and
   one placement per run made par2 differ by up to 2× between runs.
   Each instance is a timed call and a check of its last output. *)
let rotating site ~ops ~reps (insts : ((unit -> unit) * (unit -> bool)) list) =
  let insts = Array.of_list insts and next = ref 0 in
  {
    name = site;
    block =
      (fun () ->
        let run, ok = insts.(!next mod Array.length insts) in
        incr next;
        timed site ~reps run;
        record ~ops:(ops * reps) ~what:site (ok ()));
  }

(* The independent check of one forward output of descriptor [d]. *)
let check rng site d ~x ~y = verdict ~ops:1 site (Items.check rng d ~x ~y:(seen site y))

let random_cvec rng n = Array.init (2 * n) (fun _ -> Random.State.float rng 2.0 -. 1.0)
