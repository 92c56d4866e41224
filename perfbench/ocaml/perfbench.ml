(* End-to-end and per-layer benchmark of spiral-smp.

   One run of one workload: cold set-up, a child `spiralgen serve -p 2`,
   then every series of the workload in short interleaved blocks until
   the time is up, so all series sample the same host phases.  Rates come
   from the lowest tenth or the median of each series' block times
   ([Acct.estimate]); a workload's rate is the geometric mean of its
   per-shape rates.  Every block's output is
   checked outside the timed region.  The last stdout line is one JSON
   object; see README.md. *)

open Spiral_util
open Spiral_fft
module W = Workloads

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let spiralgen = ref ""
let out_dir = ref ""
let setup_child = ref false

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME small-1d | large-1d2d | plan-churn");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_int seconds, "S measured seconds");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
    ("--spiralgen", Arg.Set_string spiralgen, "PATH daemon executable");
    ("--out", Arg.Set_string out_dir, "DIR output directory for the socket and trace JSON (required)");
    ("--setup-child", Arg.Set setup_child, " time one cold set-up and print it");
    ("--corrupt", Arg.Set Acct.corrupt, " perturb the first output of every series (self-test)");
  ]

open Acct

(* ------------------------------------------------------------------ *)
(* Set-up: every plan the workload executes *)

type batch = B1 of Batch.t | B2 of Dft2d.t

(* seq, par2 and batch plans come in [w.instances] copies (registry
   clones with their own buffers); inverse plans serve the set-up round
   trips only. *)
type plans = {
  seq : (string * Items.t list) list;
  par : (string * Items.t list) list;
  inv : (string * Items.t) list;
  batches : (string * batch list) list;
}

let setup (w : W.t) =
  let copies f = List.init w.instances (fun _ -> f ()) in
  let each threads = List.map (fun d -> (d, copies (fun () -> Items.plan ~threads d))) w.shapes in
  let seq = each 1 and par = each 2 in
  let inv = List.map (fun d -> (d, Items.plan ~threads:2 (W.inverse d))) w.shapes in
  let batches =
    List.map
      (fun d ->
        let dims = Problem.dims (W.problem d) in
        ( d,
          copies (fun () ->
              match Problem.kind (W.problem d) with
              | Problem.Dft2d -> B2 (Dft2d.plan ~threads:2 ~rows:dims.(0) ~cols:dims.(1) ())
              | _ -> B1 (Batch.plan ~threads:2 ~count:8 dims.(0))) ))
      w.batch
  in
  { seq; par; inv; batches }

let destroy_plans p =
  List.iter (fun (_, es) -> List.iter (fun (e : Items.t) -> e.destroy ()) es) (p.seq @ p.par);
  List.iter (fun (_, (e : Items.t)) -> e.destroy ()) p.inv;
  List.iter
    (fun (_, bs) -> List.iter (function B1 b -> Batch.destroy b | B2 t -> Dft2d.destroy t) bs)
    p.batches

(* seq / par2 series of one shape: every block's last output is checked
   bit for bit against the checked set-up output. *)
let exec_series rng kind d (es : Items.t list) ~inverse =
  let n = W.size d in
  let site = kind ^ "/" ^ d in
  let x0 = random_cvec rng n and y0 = Cvec.create n in
  let e0 = List.hd es in
  e0.run ~src:x0 ~dst:y0;
  check rng site d ~x:x0 ~y:y0;
  verdict ~ops:1 (site ^ " parseval") (Refcheck.parseval ~n ~x:x0 ~y:y0);
  (match inverse with
   | Some (inv : Items.t) ->
       let back = Cvec.create n in
       inv.run ~src:y0 ~dst:back;
       verdict ~ops:1 (site ^ " roundtrip") (Refcheck.roundtrip ~n ~x:x0 ~back)
   | None -> ());
  let reps = calibrate (fun () -> e0.run ~src:x0 ~dst:y0) in
  let insts =
    List.map
      (fun (e : Items.t) ->
        let x = Array.copy x0 and y = Cvec.create n in
        let run () = e.run ~src:x ~dst:y in
        run ();
        record ~ops:1 ~what:(site ^ " instances agree") (Refcheck.identical y0 y);
        (run, fun () -> Refcheck.identical y0 (seen (site ^ "#") y)))
      es
  in
  rotating site ~ops:1 ~reps insts

(* batch8 series: 8 transforms per call at p = 2. *)
let batch_series rng d bs =
  let site = "batch8/" ^ d in
  let n = W.size d in
  match List.hd bs with
  | B1 _ ->
      let x0 = random_cvec rng (8 * n) in
      let ts = List.map (function B1 t -> t | B2 _ -> assert false) bs in
      let t0 = List.hd ts in
      let y0 = Batch.execute t0 x0 in
      for k = 0 to 7 do
        verdict ~ops:1 site (Refcheck.check_dft1d ~rng ~x:x0 ~y:(seen site y0) ~off:(k * n) ~n)
      done;
      let x2 = random_cvec rng (8 * n) in
      let many = Batch.execute_many t0 [| x0; x2 |] in
      record ~ops:1 ~what:(site ^ " execute_many bit identity")
        (Refcheck.identical many.(0) y0 && Refcheck.identical many.(1) (Batch.execute t0 x2));
      let reps = calibrate (fun () -> ignore (Batch.execute t0 x0)) in
      rotating site ~ops:8 ~reps
        (List.map
           (fun t ->
             let x = Array.copy x0 and last = ref [||] in
             let run () = last := Batch.execute t x in
             (run, fun () -> Refcheck.identical y0 (seen (site ^ "#") !last)))
           ts)
  | B2 _ ->
      let ts = List.map (function B2 t -> t | B1 _ -> assert false) bs in
      let t0 = List.hd ts in
      let xs = Array.init 8 (fun _ -> random_cvec rng n) in
      let jobs0 = Array.map (fun x -> (x, Cvec.create n)) xs in
      Dft2d.execute_many t0 jobs0;
      let single = Cvec.create n in
      Array.iteri
        (fun k (x, y) ->
          Dft2d.execute_into t0 ~src:x ~dst:single;
          record ~ops:1 ~what:(site ^ " execute_many bit identity") (Refcheck.identical single y);
          if k = 0 then check rng site d ~x ~y)
        jobs0;
      let want = Array.map snd jobs0 in
      let reps = calibrate (fun () -> Dft2d.execute_many t0 jobs0) in
      rotating site ~ops:8 ~reps
        (List.map
           (fun t ->
             let jobs = Array.map (fun x -> (Array.copy x, Cvec.create n)) xs in
             let run () = Dft2d.execute_many t jobs in
             let ok () =
               let r = ref true in
               Array.iteri
                 (fun k (_, y) ->
                   if not (Refcheck.identical want.(k) (seen (site ^ "#" ^ string_of_int k) y))
                   then r := false)
                 jobs;
               !r
             in
             (run, ok))
           ts)

(* ------------------------------------------------------------------ *)
(* Service series *)

module Client = Spiral_service.Client
module Protocol = Spiral_service.Protocol

type svc_req = { desc : string; x : float array; want : float array; size : int }

(* One verified request per descriptor: the in-process p = 2 plan's
   output, itself checked against direct summation. *)
let svc_requests rng descs =
  List.map
    (fun d ->
      let it = Items.plan ~threads:2 d in
      let x = Items.input rng it in
      let want = Items.execute it x in
      check rng ("svc reference " ^ d) d ~x ~y:want;
      it.destroy ();
      { desc = d; x; want; size = it.size })
    descs

let check_reply site (r : svc_req) (rep : Protocol.reply) =
  let ok =
    rep.Protocol.status = Protocol.Ok
    && (Refcheck.close ~n:r.size ~x:r.x ~want:r.want ~got:(seen site rep.Protocol.payload)).ok
  in
  record ~ops:1 ~what:(site ^ " " ^ r.desc) ok

let rtt c r =
  let t0 = now_ns () in
  let rep = Client.exec c ~descriptor:r.desc r.x in
  (since t0, rep)

(* Daemon samples read around every closed-loop block in the traced run,
   so the server-side figures cover the same requests as the round
   trips: its reply-time summary, the plans it compiled (each compiled
   plan is validated once), the plans its engine re-cloned from the
   registry, and its plan-cache LRU evictions. *)
let daemon_keys =
  Daemon.
    [
      observed "service.reply_us" "sum"; observed "service.reply_us" "count";
      counter "validate.plan"; counter "engine.plan_reuse"; counter "service.plan_evicted_lru";
    ]

let daemon_read : (unit -> float list) option ref = ref None
let daemon_delta = Array.make (List.length daemon_keys) 0.0

(* Closed loop, one connection: whole passes over the mix per block. *)
let svc_closed c reqs =
  let pass () = List.map (fun r -> (r, rtt c r)) reqs in
  ignore (pass ());
  let t0 = now_ns () in
  ignore (pass ());
  let reps = max 1 (int_of_float (0.005 /. Float.max (since t0) 1e-9)) in
  {
    name = "svc.closed";
    block =
      (fun () ->
        let before = Option.map (fun f -> f ()) !daemon_read in
        let t0 = now_ns () in
        let done_ = List.init reps (fun _ -> pass ()) in
        add "svc.closed" (since t0 /. float_of_int (reps * List.length reqs));
        (match (before, !daemon_read) with
         | Some b, Some f ->
             List.iteri
               (fun i (v0, v1) -> daemon_delta.(i) <- daemon_delta.(i) +. v1 -. v0)
               (List.combine b (f ()))
         | _ -> ());
        List.iter
          (List.iter (fun (r, (dt, rep)) ->
               add ("svc.rtt/" ^ r.desc) dt;
               check_reply "svc.closed" r rep))
          done_);
  }

(* Paced open loop at a fixed rate well below saturation: each request
   is due one interval after the previous one, and its time runs from
   when it was due, so a stall also counts against the requests it
   delays; idle-gap wake-ups are part of every round trip. *)
let svc_open c reqs interval =
  {
    name = "svc.open";
    block =
      (fun () ->
        let due = ref (Unix.gettimeofday ()) in
        let done_ =
          List.map
            (fun r ->
              let wait = !due -. Unix.gettimeofday () in
              if wait > 0.0 then Unix.sleepf wait;
              let late = Float.max 0.0 (-.wait) in
              add "svc.open.late" late;
              let dt, rep = rtt c r in
              due := !due +. interval;
              (r, (dt +. late, rep)))
            reqs
        in
        List.iter
          (fun (r, (dt, rep)) ->
            add ("svc.open/" ^ r.desc) dt;
            check_reply "svc.open" r rep)
          done_);
  }

(* ------------------------------------------------------------------ *)
(* Cold planning cycles over the churn mix *)

let plan_cycle rng =
  let refs =
    List.map
      (fun d ->
        let it = Items.plan ~threads:2 d in
        let x = Items.input rng it in
        let y = Items.execute it x in
        check rng ("plan " ^ d) d ~x ~y;
        it.destroy ();
        (d, x, y, it.size))
      W.churn_mix
  in
  let count = List.length refs in
  {
    name = "plan.cycle";
    block =
      (fun () ->
        Engine.reset_registry ();
        let t0 = now_ns () in
        let its = List.map (fun (d, _, _, _) -> Items.plan ~threads:2 d) refs in
        add "plan.cycle" (since t0 /. float_of_int count);
        List.iter2
          (fun (it : Items.t) (d, x, want, n) ->
            let got = Items.execute it x in
            record ~ops:1 ~what:("plan.cycle " ^ d)
              (Refcheck.close ~n ~x ~want ~got:(seen ("cycle " ^ d) got)).ok;
            it.destroy ())
          its refs);
  }

(* ------------------------------------------------------------------ *)
(* Host probe: a fixed 1 MiB streaming sum between blocks (half the L2) *)

let probe_buf = Array.init (1 lsl 17) float_of_int

let sweep a =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. Array.unsafe_get a i
  done;
  !s

let mem_probe =
  {
    name = "host.mem_probe";
    block =
      (fun () ->
        let best = ref infinity in
        for _ = 1 to 3 do
          let t0 = now_ns () in
          if sweep probe_buf < 0.0 then print_string "";
          best := Float.min !best (since t0)
        done;
        add "host.mem_probe" !best);
  }

(* ------------------------------------------------------------------ *)
(* Rounds *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Whole rounds of every series, in a seeded shuffled order, until the
   time is up.  A full collection between rounds, outside every timed
   block, keeps one series' garbage (batch outputs, replies) from being
   collected inside another's block, and the heap near its live size.
   [between] runs after each round and returns the seconds it took,
   which do not count against [secs]. *)
let rounds rng ~secs ?(around = fun _ f -> f ()) ?(between = fun () -> 0.0) series =
  let order = Array.of_list series in
  let t0 = now_ns () and n = ref 0 and paused = ref 0.0 in
  while since t0 -. !paused < secs || !n < 3 do
    shuffle rng order;
    Array.iter (fun s -> around s s.block) order;
    Gc.full_major ();
    paused := !paused +. between ();
    incr n
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Host stamp *)

let read_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let l = try Some (String.trim (input_line ic)) with End_of_file -> None in
      close_in ic;
      l

let caches () =
  List.filter_map
    (fun i ->
      let f x = read_line (Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/%s" i x) in
      let kind = function "Data" -> "d" | "Instruction" -> "i" | _ -> "" in
      match (f "level", f "type", f "size") with
      | Some l, Some t, Some s -> Some (Printf.sprintf "L%s%s=%s" l (kind t) s)
      | _ -> None)
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Metrics *)

let shape_rates kind shapes mult =
  List.map
    (fun d -> mult *. W.pflops d /. estimate (kind ^ "/" ^ d) /. 1e6)
    shapes

let print_json ~correct metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct !attempted !failed;
  List.iteri
    (fun i (name, unit, v) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name
        (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
        unit)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let time_setup w =
  let t0 = now_ns () in
  let p = setup w in
  let dt = since t0 in
  (dt, p)

(* Cold set-up in fresh processes, so each includes the Dft2d Auto
   measurement and every first-use cost. *)
let child_setup () =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--setup-child"; "--workload"; !workload; "--seed"; string_of_int !seed |]
  in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string !last
  | _ -> failwith "perfbench: set-up child failed"

(* Fresh-process set-ups between rounds, spread over the whole run: set-up
   time follows host phases lasting seconds, and set-ups made together at
   the start of a run all caught the same phase (run medians 0.11–0.14 s
   for small-1d).  One runs whenever the last ended at least an eighth of
   the run ago, or three set-up times for a workload whose set-up is long,
   so a 30 s run takes about eight of small-1d's and two of large-1d2d's. *)
let setup_sampler ~secs samples =
  let last = ref None and gap = ref (secs /. 8.0) in
  fun () ->
    let t0 = now_ns () in
    match !last with
    | Some t when float_of_int (t0 - t) *. 1e-9 < !gap -> 0.0
    | _ ->
        let dt = child_setup () in
        samples := dt :: !samples;
        gap := Float.max (secs /. 8.0) (3.0 *. dt);
        last := Some (now_ns ());
        since t0

let main () =
  Arg.parse args (fun a -> raise (Arg.Bad a)) "perfbench --workload NAME [options]";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !setup_child then begin
    let dt, p = time_setup w in
    destroy_plans p;
    Printf.printf "%.9f\n" dt;
    exit 0
  end;
  if !spiralgen = "" || not (Sys.file_exists !spiralgen) then begin
    prerr_endline "perfbench: --spiralgen must name the built spiralgen executable";
    exit 2
  end;
  if !out_dir = "" then begin
    prerr_endline "perfbench: --out must name the output directory";
    exit 2
  end;
  (* a terminated run still stops its daemon (at_exit in Daemon) *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  let traced = !trace = 1 in
  (* hot regime: a prepared plan pins the pool's workers on its first
     execution instead of after an adaptive streak, so interleaved plans
     sharing the pool each measure pinned dispatch after one untimed call *)
  Spiral_smp.Par_exec.default_residency := `On;
  let rng = Random.State.make [| !seed; Hashtbl.hash w.name |] in
  say "workload=%s seed=%d seconds=%d trace=%d" w.name !seed !seconds !trace;
  say "host nproc=%d %s" (Domain.recommended_domain_count ()) (String.concat " " (caches ()));
  (* set-up in this process; fresh-process set-ups run between rounds *)
  let choose_ms = if traced then Layers.choose_ms w else nan in
  let main_setup, plans = time_setup w in
  let find s l = List.assoc s l in
  let e2e =
    List.concat_map
      (fun s ->
        [
          exec_series rng "seq" s (find s plans.seq) ~inverse:None;
          exec_series rng "par2" s (find s plans.par) ~inverse:(Some (find s plans.inv));
        ])
      w.shapes
    @ List.map (fun (s, b) -> batch_series rng s b) plans.batches
  in
  let reqs = svc_requests rng w.svc in
  let churn = plan_cycle rng in
  (* the inverse plans only serve the set-up round trips; dropping them
     and the registry's master copies (live plans hold their own clones)
     keeps the large workload's heap to what the series use *)
  List.iter (fun (_, (e : Items.t)) -> e.destroy ()) plans.inv;
  Engine.reset_registry ();
  Gc.full_major ();
  say "rss after set-up: %.0f MB (high water %.0f MB), live heap %.0f MB" (Daemon.rss_mb "self")
    (Daemon.hwm_mb "self")
    (float_of_int (Gc.stat ()).Gc.live_words *. 8e-6);
  (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
  let socket = Filename.concat !out_dir (Printf.sprintf "pb%d.sock" (Unix.getpid ())) in
  let d =
    Daemon.start ~exe:!spiralgen ~socket ~threads:2 ?max_plans:w.max_plans
      ~warm:(if w.warm then w.svc else []) ()
  in
  let c = Daemon.client d in
  let svc = [ svc_closed c reqs; svc_open c reqs w.open_interval ] in
  let series = (mem_probe :: churn :: svc) @ e2e in
  let mem_probe_us () = Stats.median (get "host.mem_probe") *. 1e6 in
  let finish metrics =
    let correct = !failed = 0 in
    if not correct then say "FAILED: %s" !first_failure;
    Daemon.stop d;
    print_json ~correct metrics
  in
  if not traced then begin
    let secs = float_of_int !seconds in
    let children = ref [] in
    let n = rounds rng ~secs ~between:(setup_sampler ~secs children) series in
    let setups = main_setup :: List.rev !children in
    say "setup_s samples: %s" (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
    let pr kind shapes mult = Stats.geomean (shape_rates kind shapes mult) in
    let seq = pr "seq" w.shapes 1.0 and par = pr "par2" w.shapes 1.0 in
    let batch = pr "batch8" w.batch 8.0 in
    let svc_rps = 1.0 /. estimate "svc.closed" in
    let plans_s = 1.0 /. estimate "plan.cycle" in
    let svc_rss = Daemon.hwm_mb (string_of_int d.Daemon.pid) in
    say "rounds=%d attempted=%d failed=%d host.mem_probe_us=%.2f" n !attempted !failed
      (mem_probe_us ());
    say "open loop: interval %.0f us, generator late by median %.1f us, max %.1f us"
      (w.open_interval *. 1e6)
      (Stats.median (get "svc.open.late") *. 1e6)
      (List.fold_left Float.max 0.0 (get "svc.open.late") *. 1e6);
    List.iter
      (fun (k, l) ->
        say "series %-28s n=%-4d low=%.4g q25=%.4g median=%.4g" k (List.length !l)
          (Stats.low !l) (Stats.quantile 0.25 !l) (Stats.median !l))
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) samples []));
    finish
      [
        ("seq_pmflops", "pMflop/s", seq);
        ("par2_pmflops", "pMflop/s", par);
        ("batch8_pmflops", "pMflop/s", batch);
        ("svc_rps", "req/s", svc_rps);
        ("plans_per_s", "plans/s", plans_s);
        ("setup_s", "s", Stats.median setups);
        ("peak_rss_mb", "MB", Daemon.hwm_mb "self");
        ("svc_peak_rss_mb", "MB", svc_rss);
      ]
  end
  else begin
    let ctx =
      { Layers.w; rng; reqs = List.map (fun r -> (r.desc, r.x, r.want)) reqs }
    in
    let layer_series = Layers.series ctx in
    daemon_read := Some (fun () -> Daemon.read d daemon_keys);
    let secs = float_of_int !seconds in
    let n_a = rounds rng ~secs:(secs *. 0.75) (series @ layer_series) in
    (* traced phase: the execution series again with the Trace rings on;
       their samples are kept apart from the untraced ones *)
    let untraced = Hashtbl.copy samples in
    Hashtbl.reset samples;
    daemon_read := None;
    Trace.enable ~capacity:(1 lsl 18) ~workers:2 ();
    let n_b = rounds rng ~secs:(secs *. 0.25) ~around:Layers.span (e2e @ svc) in
    Trace.disable ();
    let traced = Hashtbl.copy samples in
    Hashtbl.reset samples;
    Hashtbl.iter (Hashtbl.replace samples) untraced;
    say "rounds untraced=%d traced=%d attempted=%d failed=%d" n_a n_b !attempted !failed;
    let dd = daemon_delta in
    say "daemon over the closed loop: %.0f requests, %.0f plan-cache LRU misses, %.0f plans compiled, %.0f re-cloned from the engine registry"
      dd.(1) dd.(4) dd.(2) dd.(3);
    (* over the daemon's life, boot included: the share of its engine
       plan requests that compiled a plan rather than cloned one *)
    let compile_frac =
      match Daemon.read d [ Daemon.counter "validate.plan"; Daemon.counter "engine.plan_reuse" ] with
      | [ compiled; cloned ] -> compiled /. (compiled +. cloned)
      | _ -> nan
    in
    let metrics =
      Layers.metrics ctx
        ~traced_get:(fun k -> match Hashtbl.find_opt traced k with Some l -> !l | None -> [])
        ~choose_ms ~server_us:(daemon_delta.(0) /. daemon_delta.(1)) ~compile_frac
        ~mem_probe_us:(mem_probe_us ())
        ~out_dir:!out_dir
    in
    Layers.release ();
    finish metrics
  end

let () =
  match main () with
  | () -> exit 0
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
