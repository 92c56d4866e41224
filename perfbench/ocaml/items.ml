(* Descriptor strings planned in process through the library's front-ends
   (Dft, Batch, Dft2d, Rfft, Rfft2d), with the payload conventions of the
   daemon, and checked against Refcheck. *)

open Spiral_fft

type t = {
  descriptor : string;
  in_floats : int;
  out_floats : int;
  size : int;  (** elements of one transform (log₂ for tolerances) *)
  run : src:float array -> dst:float array -> unit;
  destroy : unit -> unit;
}

let plan ~threads d =
  let p = Workloads.problem d in
  let dims = Problem.dims p and batch = Problem.batch p and size = Problem.size p in
  let forward = Problem.direction p = Problem.Forward in
  let half = (dims.(Array.length dims - 1) / 2) + 1 in
  let mk ?(out_floats = 2 * size * batch) in_floats run destroy =
    { descriptor = d; in_floats; out_floats; size; run; destroy }
  in
  let unsupported () = invalid_arg ("perfbench: unsupported " ^ d) in
  match Problem.kind p with
  | Problem.Dft when batch = 1 ->
      let direction = if forward then Dft.Forward else Dft.Inverse in
      let t = Dft.plan ~direction ~threads dims.(0) in
      mk (2 * size) (Dft.execute_into t) (fun () -> Dft.destroy t)
  | Problem.Dft when forward ->
      let t = Batch.plan ~threads ~count:batch dims.(0) in
      mk (2 * size * batch)
        (fun ~src ~dst -> Array.blit (Batch.execute t src) 0 dst 0 (Array.length dst))
        (fun () -> Batch.destroy t)
  | Problem.Dft2d when batch = 1 ->
      let direction = if forward then Dft2d.Forward else Dft2d.Inverse in
      let t = Dft2d.plan ~direction ~threads ~rows:dims.(0) ~cols:dims.(1) () in
      mk (2 * size) (Dft2d.execute_into t) (fun () -> Dft2d.destroy t)
  | Problem.Rfft when forward && batch = 1 ->
      let t = Rfft.plan ~threads dims.(0) in
      mk ~out_floats:(2 * half) size (Rfft.forward_into t) (fun () -> Rfft.destroy t)
  | Problem.Rdft2d when forward && batch = 1 ->
      let t = Rfft2d.plan ~threads ~rows:dims.(0) ~cols:dims.(1) () in
      mk ~out_floats:(2 * dims.(0) * half) size (Rfft2d.forward_into t) (fun () ->
          Rfft2d.destroy t)
  | _ -> unsupported ()

(* One transform into a fresh output vector. *)
let execute it x =
  let y = Array.make it.out_floats 0.0 in
  it.run ~src:x ~dst:y;
  y

let input rng it = Array.init it.in_floats (fun _ -> Random.State.float rng 2.0 -. 1.0)

(* Independent check of forward output [y] for input [x] of descriptor [d]. *)
let check rng d ~x ~y =
  let p = Workloads.problem d in
  let dims = Problem.dims p in
  match Problem.kind p with
  | _ when Problem.direction p <> Problem.Forward -> { Refcheck.ok = false; what = d }
  | Problem.Dft ->
      let n = dims.(0) in
      List.fold_left Refcheck.both Refcheck.pass
        (List.init (Problem.batch p) (fun b ->
             Refcheck.check_dft1d ~rng ~x ~y ~off:(b * n) ~n))
  | Problem.Dft2d -> Refcheck.check_dft2d ~rng ~x ~y ~rows:dims.(0) ~cols:dims.(1)
  | Problem.Rfft -> Refcheck.check_rfft ~rng ~x ~y ~n:dims.(0)
  | Problem.Rdft2d -> Refcheck.check_rdft2d ~rng ~x ~y ~rows:dims.(0) ~cols:dims.(1)
  | Problem.Wht | Problem.Dct -> { Refcheck.ok = false; what = d }
