(* Order statistics over block samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (q in [0,1]). *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = min (truncate pos) (n - 2) in
    let f = pos -. float_of_int i in
    (a.(i) *. (1.0 -. f)) +. (a.(i + 1) *. f)

let median xs = quantile 0.5 xs

(* The lowest tenth (see [Acct.estimate] for where it is used). *)
let low xs = quantile 0.1 xs

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs
