(* Per-layer figures, timed from outside through each layer's public
   functions: codelet → plan → search → rewrite/compile/validate →
   schedule (dispatch, barriers) → engine → service.  The series here
   interleave with the end-to-end ones in the traced run. *)

open Spiral_util
open Spiral_rewrite
open Spiral_codegen
open Spiral_smp
open Spiral_fft
open Acct
module W = Workloads

type ctx = {
  w : W.t;
  rng : Random.State.t;
  reqs : (string * float array * float array) list;
      (** service descriptor, request payload, verified reply payload *)
}

let direct n = Bluestein.supported_directly n
let tree n = Ruletree.mixed_radix n

(* [Some n] for a 1-D descriptor the planner derives directly (not
   through Bluestein), [None] otherwise. *)
let direct_1d d =
  let p = W.problem d in
  match Problem.kind p with
  | Problem.Dft when direct (Problem.dims p).(0) -> Some (Problem.dims p).(0)
  | _ -> None

let dims2d d =
  let p = W.problem d in
  match Problem.kind p with
  | Problem.Dft2d -> Some ((Problem.dims p).(0), (Problem.dims p).(1))
  | _ -> None

let shapes2d (w : W.t) =
  match List.filter_map dims2d w.shapes with [] -> [ (64, 64) ] | l -> l

(* Dft2d Auto planning minus a fixed-variant plan, both cold.  Auto
   remembers its choice per process, so this runs once, before any other
   2-D planning. *)
let choose_ms (w : W.t) =
  Stats.sum
    (List.map
       (fun (rows, cols) ->
         let cold variant =
           Engine.reset_registry ();
           let t0 = now_ns () in
           let t = Dft2d.plan ~threads:2 ?variant ~rows ~cols () in
           let dt = since t0 in
           Dft2d.destroy t;
           dt
         in
         let fixed = cold (Some Dft2d.Strided) in
         cold None -. fixed)
       (shapes2d w))
  *. 1e3

(* The formula the front-end plan of a directly derived 1-D or a 2-D
   descriptor executes at [threads], with its worker count; [None] for
   Bluestein sizes. *)
let formula ~threads d =
  match (direct_1d d, dims2d d) with
  | Some n, _ -> Some (Planner.derive_formula ~threads ~mu:4 ~tree:(tree n) n)
  | None, Some (rows, cols) ->
      let t = Dft2d.plan ~threads ~rows ~cols () in
      let r = (Dft2d.formula t, if Dft2d.parallel t then threads else 1) in
      Dft2d.destroy t;
      Some r
  | None, None -> None

(* A series over copies of one bare plan, each with its own buffers,
   rotated like the end-to-end series; [runs] take (src, dst). *)
let plan_block rng site d runs =
  let n = W.size d in
  let x0 = random_cvec rng n and want = Cvec.create n in
  let run0 = List.hd runs in
  run0 x0 want;
  check rng site d ~x:x0 ~y:want;
  let reps = calibrate (fun () -> run0 x0 want) in
  rotating site ~ops:1 ~reps
    (List.map
       (fun run ->
         let x = Array.copy x0 and y = Cvec.create n in
         run x y;
         record ~ops:1 ~what:(site ^ " copies agree") (Refcheck.identical want y);
         ((fun () -> run x y), fun () -> Refcheck.identical want (seen (site ^ "#") y)))
       runs)

let codelet_series rng r =
  let c = Codelet.dft r and cs = Codelet.make_scratch () in
  let x = random_cvec rng r and y = Cvec.create r in
  c.Codelet.strided_u cs x 0 y 0;
  let site = Printf.sprintf "codelet/dft%d" r in
  verdict ~ops:1 site
    (Refcheck.bins_check ~what:site
       ~bound:(Refcheck.tol ~n:r ~xnorm:(Refcheck.norm2 x))
       (List.init r (fun k ->
            ((y.(2 * k), y.((2 * k) + 1)), Refcheck.bin1d x ~off:0 ~n:r k))));
  let reps = calibrate ~target:0.001 (fun () -> c.Codelet.strided_u cs x 0 y 0) in
  { name = site; block = (fun () -> timed site ~reps (fun () -> c.Codelet.strided_u cs x 0 y 0)) }

(* Static facts of the sequential plans: passes and bytes moved. *)
type static = { mutable passes : int; mutable bytes : float; mutable barriers : float list }

let static = { passes = 0; bytes = 0.0; barriers = [] }

let pool = lazy (Pool_registry.acquire 2)
let cleanups : (unit -> unit) list ref = ref []

let seq_plan_series rng d =
  match formula ~threads:1 d with
  | None -> []
  | Some (f, _) ->
      let plan = Plan.of_formula f in
      let np = Array.length plan.Plan.passes in
      static.passes <- static.passes + np;
      static.bytes <- static.bytes +. (float_of_int (np * W.size d) *. 16.0 *. 2.0);
      [ plan_block rng ("seqplan/" ^ d) d [ Plan.execute plan ] ]

(* Par_exec of the p = 2 plan, in as many copies as the par2 series
   rotates over. *)
let par_exec_series rng (w : W.t) d =
  match formula ~threads:2 d with
  | Some (f, p) when p > 1 ->
      let copy () =
        let plan = Plan.of_formula f in
        let ok = Spiral_validate.validate_plan_result ~workers:p plan = Ok () in
        record ~ops:1 ~what:("validate " ^ d) ok;
        let prep = Par_exec.prepare (Lazy.force pool) plan in
        cleanups := (fun () -> Par_exec.release prep) :: !cleanups;
        Par_exec.execute_prepared prep
      in
      [ plan_block rng ("parexec/" ^ d) d (List.init w.instances (fun _ -> copy ())) ]
  | _ -> []

let barriers d =
  match (direct_1d d, dims2d d) with
  | Some n, _ ->
      let e =
        Engine.plan ~threads:2
          ~derive:(fun ~threads ~mu -> Planner.derive_formula ~threads ~mu ~tree:(tree n) n)
          (Problem.make Problem.Dft [ n ])
      in
      static.barriers <- float_of_int (Engine.barriers e) :: static.barriers;
      Engine.destroy e
  | None, Some (rows, cols) ->
      let t = Dft2d.plan ~threads:2 ~rows ~cols () in
      static.barriers <- float_of_int (Dft2d.barriers t) :: static.barriers;
      Dft2d.destroy t
  | None, None -> ()

let dp_memo = Hashtbl.create 16

let dp_series rng (w : W.t) =
  List.filter_map
    (fun d ->
      match direct_1d d with
      | Some n when n <= w.dp_max ->
          let t, _ =
            Spiral_search.Dp.search ~memo:dp_memo
              ~measure:(Spiral_search.Timer.measure_host ~repeats:3)
              n
          in
          let plan = Plan.of_formula (Ruletree.expand t) in
          Some (plan_block rng ("dptree/" ^ d) d [ Plan.execute plan ])
      | _ -> None)
    w.shapes

(* Planning stages of the churn mix's 1-D sizes, each timed apart. *)
let stage_sizes = [ 512; 768; 1000; 2048 ]

let stages_series =
  {
    name = "stages";
    block =
      (fun () ->
        let tot = Array.make 4 0.0 and cnt = Array.make 4 0 in
        let lap k t0 =
          tot.(k) <- tot.(k) +. since t0;
          cnt.(k) <- cnt.(k) + 1
        in
        List.iter
          (fun n ->
            let t0 = now_ns () in
            let f, p = Planner.derive_formula ~threads:2 ~mu:4 ~tree:(tree n) n in
            lap 0 t0;
            let t0 = now_ns () in
            let plan = Plan.of_formula f in
            lap 1 t0;
            let t0 = now_ns () in
            let ok = Spiral_validate.validate_plan_result ~workers:p plan = Ok () in
            lap 2 t0;
            record ~ops:1 ~what:(Printf.sprintf "stages validate %d" n) ok;
            if p > 1 then begin
              let t0 = now_ns () in
              let prep = Par_exec.prepare (Lazy.force pool) plan in
              lap 3 t0;
              Par_exec.release prep
            end)
          stage_sizes;
        Array.iteri
          (fun i key -> if cnt.(i) > 0 then add key (tot.(i) /. float_of_int cnt.(i)))
          [| "stage.derive"; "stage.compile"; "stage.validate"; "stage.prepare" |]);
  }

(* Dispatch, barrier and idle-gap probes on a private 2-worker pool; the
   region is entered and left around every block so its spinning worker
   never competes with the other series. *)
let private_pool = lazy (Pool.create 2)

let region_block key ~before f =
  let r = Pool.region_begin (Lazy.force private_pool) in
  Fun.protect
    ~finally:(fun () -> Pool.region_end r)
    (fun () ->
      let ok = Pool.region_run r (fun _ -> ()) in
      before ();
      let v = f r in
      record ~ops:1 ~what:key (ok && Float.is_finite v);
      if Float.is_finite v then add key v)

let noop (_ : int) = ()

let smp_series =
  let b = Barrier.create 2 in
  let ctxs = Array.init 2 (fun w -> let c = Barrier.make_ctx b in Barrier.set_worker c w; c) in
  let crossings = 2000 in
  [
    {
      name = "smp.dispatch";
      block =
        (fun () ->
          region_block "smp.dispatch" ~before:ignore (fun r ->
              let reps = 2000 in
              let t0 = now_ns () in
              let ok = ref true in
              for _ = 1 to reps do
                if not (Pool.region_run r noop) then ok := false
              done;
              if !ok then since t0 /. float_of_int reps else nan));
    };
    {
      name = "smp.barrier";
      block =
        (fun () ->
          region_block "smp.barrier" ~before:ignore (fun r ->
              let t0 = now_ns () in
              let ok =
                Pool.region_run r (fun w ->
                    for _ = 1 to crossings do
                      Barrier.wait b ctxs.(w)
                    done)
              in
              if ok then since t0 /. float_of_int crossings else nan));
    };
    {
      name = "smp.gap";
      block =
        (fun () ->
          region_block "smp.gap" ~before:(fun () -> Unix.sleepf 0.005) (fun r ->
              let t0 = now_ns () in
              if Pool.region_run r noop then since t0 else nan));
    };
  ]

module Protocol = Spiral_service.Protocol
module Plans = Spiral_service.Plans

let codec_series (ctx : ctx) =
  List.map
    (fun (d, x, want) ->
      let req = { Protocol.op = Protocol.Exec; id = 1; deadline_ms = 0; descriptor = d; payload = x } in
      let rep = Protocol.encode_reply { Protocol.id = 1; status = Protocol.Ok; message = ""; payload = want } in
      let ok =
        match Protocol.decode_reply rep with
        | Ok r -> Refcheck.identical r.Protocol.payload want
        | Error _ -> false
      in
      record ~ops:1 ~what:("codec " ^ d) ok;
      let enc () = ignore (Protocol.encode_request req) in
      let dec () = ignore (Protocol.decode_reply rep) in
      let re = calibrate ~target:0.001 enc and rd = calibrate ~target:0.001 dec in
      {
        name = "codec/" ^ d;
        block =
          (fun () ->
            timed ("codec.encode/" ^ d) ~reps:re enc;
            timed ("codec.decode/" ^ d) ~reps:rd dec);
      })
    ctx.reqs

let lookup_series (ctx : ctx) =
  let t = Plans.create ~threads:2 () in
  cleanups := (fun () -> Plans.destroy_all t) :: !cleanups;
  let descs = Array.of_list (List.map (fun (d, _, _) -> d) ctx.reqs) in
  let lookup d =
    let ok = match Plans.lookup t d with Ok _ -> true | Error _ -> false in
    record ~ops:1 ~what:("lookup " ^ d) ok
  in
  Array.iter lookup descs;
  let next = ref 0 in
  [
    {
      name = "lookup.hit";
      block =
        (fun () ->
          let t0 = now_ns () in
          Array.iter lookup descs;
          add "lookup.hit" (since t0 /. float_of_int (Array.length descs)));
    };
    {
      name = "lookup.miss";
      block =
        (fun () ->
          let d = descs.(!next mod Array.length descs) in
          incr next;
          Plans.evict t d;
          Engine.reset_registry ();
          let t0 = now_ns () in
          lookup d;
          add "lookup.miss" (since t0));
    };
  ]

let series (ctx : ctx) =
  let w = ctx.w in
  List.iter barriers w.shapes;
  List.map (codelet_series ctx.rng) [ 4; 8; 16; 32 ]
  @ List.concat_map (seq_plan_series ctx.rng) w.shapes
  @ List.concat_map (par_exec_series ctx.rng w) w.shapes
  @ dp_series ctx.rng w
  @ (stages_series :: smp_series)
  @ codec_series ctx @ lookup_series ctx

let release () =
  List.iter (fun f -> f ()) !cleanups;
  cleanups := [];
  if Lazy.is_val private_pool then Pool.shutdown (Lazy.force private_pool);
  if Lazy.is_val pool then Pool_registry.release (Lazy.force pool)

(* ------------------------------------------------------------------ *)
(* Trace: the benchmark's own spans around each block, on ring 0 (the
   calling domain is worker 0 of every region). *)

let bench_cats = [ ("seq", 20); ("par2", 21); ("batch8", 22); ("svc", 23) ]

let cat_of name =
  let kind = match String.index_opt name '/' with Some i -> String.sub name 0 i | None -> name in
  let kind = if String.length kind >= 3 && String.sub kind 0 3 = "svc" then "svc" else kind in
  Option.value ~default:24 (List.assoc_opt kind bench_cats)

let span (s : series) f =
  let c = cat_of s.name in
  Trace.begin_span 0 c 0;
  f ();
  Trace.end_span 0 c 0

let layer_name c =
  match List.find_opt (fun (_, v) -> v = c) bench_cats with
  | Some (k, _) -> "bench." ^ k
  | None -> Trace.cat_name c

(* Self time per category: span duration minus its direct children. *)
let self_times () =
  let tbl = Hashtbl.create 16 in
  let by_worker = Hashtbl.create 4 in
  let spans = Trace.spans () in
  (* rings wrap at different rates: keep the window every ring covers *)
  let first = Hashtbl.create 4 in
  List.iter
    (fun (s : Trace.span) ->
      let f = Option.value ~default:max_int (Hashtbl.find_opt first s.worker) in
      Hashtbl.replace first s.worker (min f s.ts_ns))
    spans;
  let start = Hashtbl.fold (fun _ v acc -> max v acc) first min_int in
  List.iter
    (fun (s : Trace.span) ->
      if s.ts_ns >= start then
      let l = Option.value ~default:[] (Hashtbl.find_opt by_worker s.worker) in
      Hashtbl.replace by_worker s.worker (s :: l))
    spans;
  Hashtbl.iter
    (fun _ spans ->
      let spans =
        List.sort
          (fun (a : Trace.span) (b : Trace.span) ->
            if a.ts_ns <> b.ts_ns then compare a.ts_ns b.ts_ns else compare b.dur_ns a.dur_ns)
          spans
      in
      let self = Hashtbl.create 64 in
      let stack = ref [] in
      List.iter
        (fun (s : Trace.span) ->
          let rec pop () =
            match !stack with
            | (p : Trace.span) :: rest when p.ts_ns + p.dur_ns <= s.ts_ns ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
           | (p : Trace.span) :: _ ->
               let key = (p.cat, p.ts_ns, p.worker) in
               Hashtbl.replace self key (Option.value ~default:0 (Hashtbl.find_opt self key) + s.dur_ns)
           | [] -> ());
          stack := s :: !stack)
        spans;
      List.iter
        (fun (s : Trace.span) ->
          let child = Option.value ~default:0 (Hashtbl.find_opt self (s.cat, s.ts_ns, s.worker)) in
          let name = layer_name s.cat in
          let prev = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
          Hashtbl.replace tbl name (prev + max 0 (s.dur_ns - child)))
        spans)
    by_worker;
  List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write_chrome ~out_dir ~w =
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s.json" w.W.name) in
  let oc = open_out path in
  output_string oc (Trace.to_chrome_json ());
  close_out oc;
  path

(* ------------------------------------------------------------------ *)
(* Metrics of the traced run *)

let metrics (ctx : ctx) ~traced_get ~choose_ms ~server_us ~compile_frac ~mem_probe_us ~out_dir =
  let w = ctx.w in
  let us v = v *. 1e6 and ns v = v *. 1e9 and ms v = v *. 1e3 in
  let sum_est prefix =
    Stats.sum
      (List.filter_map
         (fun d -> match get (prefix ^ d) with [] -> None | _ -> Some (estimate (prefix ^ d)))
         w.shapes)
  in
  let descs = List.map (fun (d, _, _) -> d) ctx.reqs in
  let over_descs f = Stats.mean (List.map f descs) in
  let dp_rates =
    List.filter_map
      (fun d ->
        match get ("dptree/" ^ d) with
        | [] -> None
        | _ -> Some (W.pflops d /. estimate ("dptree/" ^ d) /. 1e6))
      w.shapes
  in
  let p90 =
    Stats.geomean
      (List.map (fun d -> W.pflops d /. Stats.quantile 0.9 (get ("par2/" ^ d)) /. 1e6) w.shapes)
  in
  let overhead_frac =
    Stats.geomean
      (List.filter_map
         (fun d ->
           match (traced_get ("par2/" ^ d), get ("par2/" ^ d)) with
           | [], _ | _, [] -> None
           | a, b -> Some (Stats.median a /. Stats.median b))
         w.shapes)
    -. 1.0
  in
  let rtt = over_descs (fun d -> Stats.median (get ("svc.rtt/" ^ d))) in
  (* the daemon reports a mean, so the split into server and transport
     time uses the mean round trip of the same requests *)
  let rtt_mean = Stats.mean (List.concat_map (fun d -> get ("svc.rtt/" ^ d)) descs) in
  let encode = over_descs (fun d -> estimate ("codec.encode/" ^ d)) in
  let decode = over_descs (fun d -> estimate ("codec.decode/" ^ d)) in
  let open_all = List.concat_map (fun d -> get ("svc.open/" ^ d)) descs in
  say "open loop: %d requests, p99 over all of them" (List.length open_all);
  let p99 = Stats.quantile 0.99 open_all in
  let batch_job =
    Stats.geomean (List.map (fun d -> estimate ("batch8/" ^ d) /. 8.0) w.batch)
  in
  let rep = Trace.report () in
  let path = write_chrome ~out_dir ~w in
  say "trace: %d events (%d dropped) -> %s" rep.Trace.event_count rep.Trace.dropped_count path;
  let table = self_times () in
  let total = List.fold_left (fun a (_, v) -> a + v) 0 table in
  say "%-16s %12s %7s" "layer (self)" "ms" "share";
  List.iter
    (fun (k, v) ->
      say "%-16s %12.3f %6.1f%%" k (float_of_int v /. 1e6)
        (100.0 *. float_of_int v /. float_of_int (max 1 total)))
    table;
  (* residuals: how far the layer figures fall short of the end-to-end ones *)
  let barrier = estimate "smp.barrier" and dispatch = estimate "smp.dispatch" in
  let mean_barriers = Stats.mean static.barriers in
  let par2_sum = sum_est "par2/" and seq_plan_sum = sum_est "seqplan/" in
  let n_shapes = float_of_int (List.length w.shapes) in
  let model = (seq_plan_sum /. 2.0) +. (n_shapes *. ((mean_barriers *. barrier) +. dispatch)) in
  let par2_residual = (par2_sum -. model) /. par2_sum in
  let rtt_model = encode +. decode +. (server_us *. 1e-6) in
  let rtt_residual = (rtt_mean -. rtt_model) /. rtt_mean in
  say "residual par2: measured %.1f us, layers %.1f us (seq_plan/2 + barriers + dispatch), residual %.1f%%"
    (us par2_sum) (us model) (100.0 *. par2_residual);
  say "residual rtt: measured %.1f us (mean), layers %.1f us (encode + decode + server), residual %.1f%%"
    (us rtt_mean) (us rtt_model) (100.0 *. rtt_residual);
  [
    ("codegen.codelet_ns.dft4", "ns", ns (estimate "codelet/dft4"));
    ("codegen.codelet_ns.dft8", "ns", ns (estimate "codelet/dft8"));
    ("codegen.codelet_ns.dft16", "ns", ns (estimate "codelet/dft16"));
    ("codegen.codelet_ns.dft32", "ns", ns (estimate "codelet/dft32"));
    ("codegen.seq_plan_us", "us", us seq_plan_sum);
    ("codegen.passes", "count", float_of_int static.passes);
    ("codegen.computed_mb", "MB", static.bytes /. 1e6);
    ("search.dp_tree_pmflops", "pMflop/s", Stats.geomean dp_rates);
    ("rewrite.derive_ms", "ms", ms (estimate "stage.derive"));
    ("codegen.compile_ms", "ms", ms (estimate "stage.compile"));
    ("validate.check_ms", "ms", ms (estimate "stage.validate"));
    ("smp.prepare_ms", "ms", ms (estimate "stage.prepare"));
    ("search.choose_ms", "ms", choose_ms);
    ("smp.par_exec_us", "us", us (sum_est "parexec/"));
    ("smp.dispatch_ns", "ns", ns dispatch);
    ("smp.barrier_ns", "ns", ns barrier);
    ("smp.gap_dispatch_us", "us", us (Stats.median (get "smp.gap")));
    ("smp.barriers_per_transform", "count", mean_barriers);
    ("engine.batch_job_us", "us", us batch_job);
    ("service.encode_us", "us", us encode);
    ("service.decode_us", "us", us decode);
    ("service.lookup_hit_us", "us", us (estimate "lookup.hit"));
    ("service.lookup_miss_ms", "ms", ms (Stats.median (get "lookup.miss")));
    ("service.rtt_us", "us", us rtt);
    ("service.compile_frac", "ratio", compile_frac);
    ("service.server_us", "us", server_us);
    ("service.transport_us", "us", us rtt_mean -. server_us);
    ("svc_p50_us", "us", us (Stats.geomean (List.map (fun d -> Stats.median (get ("svc.open/" ^ d))) descs)));
    ("service.p99_us", "us", us p99);
    ("par2.p90_pmflops", "pMflop/s", p90);
    ("host.mem_probe_us", "us", mem_probe_us);
    ("smp.barrier_wait_frac", "ratio", rep.Trace.barrier_wait_frac);
    ("smp.load_imbalance", "ratio", rep.Trace.load_imbalance);
    ("smp.traced_dispatch_us", "us", rep.Trace.dispatch_latency_ns /. 1e3);
    ("trace.overhead_frac", "ratio", overhead_frac);
    ("residual.par2_frac", "ratio", par2_residual);
    ("residual.rtt_frac", "ratio", rtt_residual);
  ]
