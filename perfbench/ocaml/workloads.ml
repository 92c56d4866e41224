(* The three workloads: what each executes in process, what the daemon
   serves, and the cold-planning mix every workload times.  Every shape
   is a forward descriptor ([Problem.of_string] syntax). *)

open Spiral_fft

type t = {
  name : string;
  shapes : string list;  (** seq / par2 series: dft[n]f or dft2d[RxC]f *)
  batch : string list;  (** batch8 series: 8 transforms per call at p = 2 *)
  svc : string list;  (** the daemon's descriptor mix *)
  max_plans : int option;  (** daemon --max-plans; below the mix forces LRU misses *)
  warm : bool;  (** plan the mix at daemon boot *)
  open_interval : float;  (** open-loop pacing, seconds between requests *)
  dp_max : int;  (** largest 1-D size Dp.search explores *)
  instances : int;  (** copies of each executed plan, with their own buffers *)
}

(* Cold planning mix (plans_per_s): powers of two, mixed radix, a prime
   served by Bluestein, real 2-D, batched and 2-D descriptors, planned at
   threads = 2 with the plan registry reset before every cycle. *)
let churn_mix =
  [
    "dft[512]f"; "dft[2048]f"; "dft[768]f"; "dft[1000]f"; "dft[1009]f";
    "dft2d[64x64]f"; "rdft2d[32x64]f"; "dft[128]fx4"; "rfft[1024]f";
  ]

let small =
  {
    name = "small-1d";
    shapes = [ "dft[64]f"; "dft[256]f"; "dft[1024]f"; "dft[4096]f" ];
    batch = [ "dft[64]f"; "dft[256]f"; "dft[1024]f"; "dft[4096]f" ];
    svc =
      [ "dft[64]f"; "dft[256]f"; "dft[1024]f"; "dft[4096]f"; "rfft[1024]f"; "dft[256]fx8" ];
    max_plans = None;
    warm = true;
    open_interval = 0.002;
    dp_max = 4096;
    instances = 4;
  }

let large =
  {
    name = "large-1d2d";
    (* buffers of 1–4 MiB, working sets (src, dst, two temporaries) of
       4–16 MiB, past the 2 MiB L2.  A compiled plan holds ~80 bytes per
       element, so 2^20 and 1024×1024 plans at p = 1 and 2 would take the
       run past 2.5 GB; they are left out. *)
    shapes =
      [ "dft[65536]f"; "dft[131072]f"; "dft[262144]f"; "dft2d[256x512]f"; "dft2d[512x512]f" ];
    batch = [ "dft[65536]f"; "dft2d[256x512]f" ];
    svc = [ "dft[65536]f"; "dft2d[512x512]f" ];
    max_plans = None;
    warm = true;
    open_interval = 0.1;
    dp_max = 65536;
    instances = 2;
  }

let churn =
  {
    name = "plan-churn";
    shapes = [ "dft[768]f"; "dft[1000]f"; "dft[1009]f"; "dft2d[64x64]f" ];
    batch = [ "dft[1000]f"; "dft2d[64x64]f" ];
    svc = churn_mix;
    max_plans = Some 4;
    warm = false;
    open_interval = 0.005;
    dp_max = 1000;
    instances = 4;
  }

let all = [ small; large; churn ]
let find name = List.find_opt (fun w -> w.name = name) all

let problem d =
  match Problem.of_string d with
  | Some p -> p
  | None -> invalid_arg ("perfbench: bad descriptor " ^ d)

(* Elements of one transform. *)
let size d = Problem.size (problem d)

(* The same descriptor in the inverse direction. *)
let inverse d =
  let p = problem d in
  Problem.to_string
    (Problem.make ~direction:Problem.Inverse ~batch:(Problem.batch p) (Problem.kind p)
       (Array.to_list (Problem.dims p)))

(* Paper's pseudo-flop count 5·N·log₂N of one transform. *)
let pflops d =
  let n = float_of_int (size d) in
  5.0 *. n *. Float.log2 n
