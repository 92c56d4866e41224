(* Output checks computed apart from the library: sampled bins by direct
   summation (Neumaier-compensated, twiddle angles reduced exactly mod N),
   Parseval, inverse round trip, and bit identity.  Tolerances scale as
   c·ε·log₂N·‖x‖₂. *)

let eps = epsilon_float
let c_tol = 16.0

let log2f n = Float.max 1.0 (Float.log2 (float_of_int n))

let add_to s c v =
  let t = s +. v in
  let c = if Float.abs s >= Float.abs v then c +. (s -. t +. v) else c +. (v -. t +. s) in
  (t, c)

let norm2 (a : float array) =
  let s = ref 0.0 and c = ref 0.0 in
  Array.iter
    (fun v ->
      let t, c' = add_to !s !c (v *. v) in
      s := t;
      c := c')
    a;
  sqrt (!s +. !c)

let tol ~n ~xnorm = c_tol *. eps *. log2f n *. xnorm

(* Compensated complex accumulator. *)
type acc = {
  mutable re : float;
  mutable rc : float;
  mutable im : float;
  mutable ic : float;
}

let acc () = { re = 0.0; rc = 0.0; im = 0.0; ic = 0.0 }

let accum a re im =
  let t, c = add_to a.re a.rc re in
  a.re <- t;
  a.rc <- c;
  let t, c = add_to a.im a.ic im in
  a.im <- t;
  a.ic <- c

let tw n k =
  let ang = -2.0 *. Float.pi *. float_of_int k /. float_of_int n in
  (cos ang, sin ang)

(* Bin [k] of the forward DFT of interleaved complex [x] of length [n]. *)
let bin1d (x : float array) ~off ~n k =
  let a = acc () in
  for j = 0 to n - 1 do
    let wr, wi = tw n (j * k mod n) in
    let xr = x.(2 * (off + j)) and xi = x.((2 * (off + j)) + 1) in
    accum a ((xr *. wr) -. (xi *. wi)) ((xr *. wi) +. (xi *. wr))
  done;
  (a.re +. a.rc, a.im +. a.ic)

(* Bin (k1, k2) of the 2-D DFT of a rows×cols row-major complex matrix;
   [real] reads the matrix as real samples. *)
let bin2d ?(real = false) (x : float array) ~rows ~cols (k1, k2) =
  let a = acc () in
  for r = 0 to rows - 1 do
    let w1r, w1i = tw rows (r * k1 mod rows) in
    for c = 0 to cols - 1 do
      let w2r, w2i = tw cols (c * k2 mod cols) in
      let wr = (w1r *. w2r) -. (w1i *. w2i)
      and wi = (w1r *. w2i) +. (w1i *. w2r) in
      let i = (r * cols) + c in
      let xr, xi = if real then (x.(i), 0.0) else (x.(2 * i), x.((2 * i) + 1)) in
      accum a ((xr *. wr) -. (xi *. wi)) ((xr *. wi) +. (xi *. wr))
    done
  done;
  (a.re +. a.rc, a.im +. a.ic)

(* Bin [k] of the DFT of real samples [x] of length [n]. *)
let bin_real (x : float array) ~n k =
  let a = acc () in
  for j = 0 to n - 1 do
    let wr, wi = tw n (j * k mod n) in
    accum a (x.(j) *. wr) (x.(j) *. wi)
  done;
  (a.re +. a.rc, a.im +. a.ic)

(* Bins every check samples: both ends, the middle, and seeded others. *)
let sample_bins rng n =
  let fixed = [ 0; 1; n / 2; n - 1 ] in
  List.sort_uniq compare
    (fixed @ List.init 4 (fun _ -> Random.State.int rng n))

(* [what] names the check and, on failure, the error as a share of its
   bound. *)
type verdict = { ok : bool; what : string }

let pass = { ok = true; what = "" }
let both a b = if a.ok then b else a

let within ~what ~bound err =
  if err <= bound then { ok = true; what }
  else { ok = false; what = Printf.sprintf "%s: error %.3g x bound" what (err /. bound) }

(* Largest |got - want| over the sampled bins. *)
let bins_check ~what ~bound (pairs : ((float * float) * (float * float)) list) =
  within ~what ~bound
    (List.fold_left
       (fun w ((gr, gi), (wr, wi)) -> Float.max w (Float.hypot (gr -. wr) (gi -. wi)))
       0.0 pairs)

let check_dft1d ~rng ~(x : float array) ~(y : float array) ~off ~n =
  let xs = Array.sub x (2 * off) (2 * n) in
  let bound = tol ~n ~xnorm:(norm2 xs) in
  let pairs =
    List.map
      (fun k -> ((y.(2 * (off + k)), y.((2 * (off + k)) + 1)), bin1d x ~off ~n k))
      (sample_bins rng n)
  in
  bins_check ~what:(Printf.sprintf "dft[%d] sampled bins" n) ~bound pairs

let check_dft2d ~rng ~(x : float array) ~(y : float array) ~rows ~cols =
  let n = rows * cols in
  let bound = tol ~n ~xnorm:(norm2 x) in
  let ks =
    [ (0, 0); (1, 0); (0, 1); (rows / 2, cols / 2); (rows - 1, cols - 1) ]
    @ List.init 3 (fun _ -> (Random.State.int rng rows, Random.State.int rng cols))
  in
  let pairs =
    List.map
      (fun (k1, k2) ->
        let i = (k1 * cols) + k2 in
        ((y.(2 * i), y.((2 * i) + 1)), bin2d x ~rows ~cols (k1, k2)))
      ks
  in
  bins_check ~what:(Printf.sprintf "dft2d[%dx%d] sampled bins" rows cols) ~bound pairs

(* Real input [x] (n samples), half spectrum [y] (n/2+1 bins). *)
let check_rfft ~rng ~(x : float array) ~(y : float array) ~n =
  let bound = tol ~n ~xnorm:(norm2 x) in
  let ks =
    List.sort_uniq compare
      ([ 0; 1; n / 2 ] @ List.init 4 (fun _ -> Random.State.int rng ((n / 2) + 1)))
  in
  let pairs = List.map (fun k -> ((y.(2 * k), y.((2 * k) + 1)), bin_real x ~n k)) ks in
  bins_check ~what:(Printf.sprintf "rfft[%d] sampled bins" n) ~bound pairs

(* Real rows×cols input, half spectrum rows×(cols/2+1). *)
let check_rdft2d ~rng ~(x : float array) ~(y : float array) ~rows ~cols =
  let n = rows * cols and h = (cols / 2) + 1 in
  let bound = tol ~n ~xnorm:(norm2 x) in
  let ks =
    [ (0, 0); (1, 1); (rows - 1, cols / 2) ]
    @ List.init 3 (fun _ -> (Random.State.int rng rows, Random.State.int rng h))
  in
  let pairs =
    List.map
      (fun (k1, k2) ->
        let i = (k1 * h) + k2 in
        ((y.(2 * i), y.((2 * i) + 1)), bin2d ~real:true x ~rows ~cols (k1, k2)))
      ks
  in
  bins_check ~what:(Printf.sprintf "rdft2d[%dx%d] sampled bins" rows cols) ~bound pairs

(* Σ|X|² = N·Σ|x|² for an unnormalized complex transform of size n. *)
let parseval ~n ~(x : float array) ~(y : float array) =
  let ex = norm2 x ** 2.0 and ey = norm2 y ** 2.0 in
  let bound = c_tol *. eps *. log2f n *. float_of_int n *. ex in
  within ~what:(Printf.sprintf "parseval n=%d" n) ~bound (Float.abs (ey -. (float_of_int n *. ex)))

(* ‖x' - x‖₂ after forward then inverse. *)
let roundtrip ~n ~(x : float array) ~(back : float array) =
  let d = ref 0.0 in
  Array.iteri (fun i v -> let e = back.(i) -. v in d := !d +. (e *. e)) x;
  within ~what:(Printf.sprintf "roundtrip n=%d" n) ~bound:(tol ~n ~xnorm:(norm2 x)) (sqrt !d)

(* Two outputs of transforms of size n agree within the bound. *)
let close ~n ~(x : float array) ~(want : float array) ~(got : float array) =
  if Array.length want <> Array.length got then { ok = false; what = "length mismatch" }
  else begin
    let d = ref 0.0 in
    Array.iteri (fun i v -> d := Float.max !d (Float.abs (got.(i) -. v))) want;
    within ~what:"reference" ~bound:(2.0 *. tol ~n ~xnorm:(norm2 x)) !d
  end

let identical (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i v -> if Int64.bits_of_float v <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok
