(* A child `spiralgen serve -p 2` on a Unix-domain socket. *)

open Spiral_service

type t = { pid : int; socket : string; mutable client : Client.t option }

let live : t list ref = ref []

let stop d =
  (match d.client with Some c -> (try Client.close c with _ -> ()) | None -> ());
  d.client <- None;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (* the daemon drains and exits on SIGTERM; one that has not after 10 s
     is killed, so the benchmark always ends *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        reap ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  (try reap () with Unix.Unix_error _ -> ());
  (try Sys.remove d.socket with Sys_error _ -> ());
  live := List.filter (fun x -> x != d) !live

let () = at_exit (fun () -> List.iter stop !live)

let start ~exe ~socket ~threads ?max_plans ~warm () =
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ exe; "serve"; "--socket"; socket; "-p"; string_of_int threads ]
    @ (match max_plans with Some m -> [ "--max-plans"; string_of_int m ] | None -> [])
    @ match warm with [] -> [] | l -> [ "--warm"; String.concat "," l ]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process exe (Array.of_list args) null null Unix.stderr in
  Unix.close null;
  let d = { pid; socket; client = None } in
  live := d :: !live;
  let deadline = Unix.gettimeofday () +. 120.0 in
  let rec connect () =
    match Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ -> ()
         | _ -> failwith "perfbench: the daemon exited at start");
        if Unix.gettimeofday () > deadline then failwith "perfbench: daemon did not start";
        Unix.sleepf 0.05;
        connect ()
  in
  d.client <- Some (connect ());
  d

let client d = match d.client with Some c -> c | None -> failwith "perfbench: no client"

(* A VmXXX field of /proc/<pid>/status, MB. *)
let status_mb field pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> nan
        | l ->
            let k = String.length field in
            if String.length l > k && String.sub l 0 k = field then
              Scanf.sscanf (String.sub l k (String.length l - k)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else find ()
      in
      let v = find () in
      close_in ic;
      v

(* Samples of the daemon's Prometheus exposition (Client.stats), read in
   one round trip: [read d keys] gives the value of each sample named by
   [key] (metric and labels), 0 when the daemon has not recorded it. *)
let read d keys =
  let lines = String.split_on_char '\n' (Client.stats (client d)) in
  List.map
    (fun key ->
      let key = key ^ " " in
      let kl = String.length key in
      List.fold_left
        (fun acc l ->
          if String.length l > kl && String.sub l 0 kl = key then
            float_of_string (String.trim (String.sub l kl (String.length l - kl)))
          else acc)
        0.0 lines)
    keys

let counter name = Printf.sprintf "spiral_events_total{name=\"%s\"}" name
let observed name stat = Printf.sprintf "spiral_observed{name=\"%s\",stat=\"%s\"}" name stat

(* High-water and current resident set of a process, MB. *)
let hwm_mb = status_mb "VmHWM:"
let rss_mb = status_mb "VmRSS:"
