// Package bench is the repository benchmark: the host cost of running the
// simulator, measured end to end per workload and attributed to the
// simulator's layers.
//
// The simulator is a batch program, not a server: there is no arrival
// loop. A workload is one fixed-size simulation (hosts, simulated
// milliseconds) built from a seed, and one repetition builds it with
// network.New and runs it with Network.Run in a fresh child process, so
// peak RSS is measured per repetition and one run's heap cannot change the
// GC pacing of the next. Simulated warm-up is inside the timed run,
// because users pay it on every run. The simulated results are
// deterministic but not validated against hardware, so the benchmark
// gives no accuracy figure.
//
// A timed run at seed s makes n repetitions: n-1 inputs, the first being
// s itself and the others derived from it, then input s once more. The
// medians describe the workload over several draws of its randomness,
// and the repeat checks that one input gives one result. n is 5, or with
// -seconds as many of the workload's nominal repetition times as fit (at
// least 3), so the inputs never depend on measured time.
//
// # Running it
//
// From the repository root, bash internal/bench/run.sh builds the benchmark
// with every build artefact under .bench_build/ and runs it with the
// given flags. From internal/bench, go run ./cmd/benchrun does the same
// with the default Go cache.
//
//	bash internal/bench/run.sh -seed 1                 # all workloads, 5 repetitions each
//	bash internal/bench/run.sh -workload clos16-sat -seed 1 -seconds 20
//	bash internal/bench/run.sh -trace 1 -seed 1        # traced run: per-layer metrics
//	bash internal/bench/run.sh -compare parent.json change.json
//
// The timed run prints, per workload, every end-to-end metric with unit,
// median, p25, p75 and the sample count n, the result fingerprint, and
// failed_frac; it writes result.json to -outdir (.bench_build/out) and
// prints one JSON summary line last. It records GOMAXPROCS, nproc, the Go
// version and the commit. It refuses paper128-sharded on a host with
// fewer than 2 CPUs. -compare applies BENCHMARK.json's bounds to two
// result.json files and prints one row per workload and metric with each
// side's median and IQR and a verdict: better, same, worse, or
// unresolved when the spread is wider than the bound and the runs do not
// all separate.
//
// # Correctness
//
// One repetition is one operation. It fails when network.New errors, the
// child exits non-zero or panics, it runs 10x its workload's median time
// and is killed, Results.Conservation.Check or Network.AuditInvariants
// errors, or its result fingerprint differs from an earlier repetition of
// the same input. The fingerprint is a SHA-256 over the shard-invariant
// result sections the shard-determinism cross-check renders. At seed 1 a
// fingerprint that differs from the recorded one prints model_changed=yes:
// information for reviewing a model change, not a failure.
//
// # End-to-end metrics
//
//   - sim_ms_per_s: simulated ms per wall second of Network.Run.
//   - cpu_s_per_sim_ms: user+sys CPU seconds during Network.Run per
//     simulated ms; it catches parsim barrier spin that wall time hides.
//   - setup_s: wall seconds of network.New, timed several times per
//     repetition.
//   - peak_rss_mb: the child's peak resident set (MiB).
//   - alloc_mb_per_sim_ms: heap bytes allocated during Network.Run (MiB)
//     per simulated ms.
//
// A failed repetition counts in failed/attempted. Events per second is
// deliberately not end to end: a change that removes events lowers it
// while making runs faster. It is the per-layer sim.events_per_s.
//
// # Workloads
//
// All use the Advanced 2-VC architecture.
//
//   - clos16-sat: the 16-host folded Clos at load 1.0, 2 ms warm-up +
//     20 ms. The paper's full-load point and the profiling config:
//     crossbar contention, take-overs and a growing NIC backlog (~140k
//     packets) make sim, switchsim, pqueue and the GC do most of the work.
//   - clos16-light: the same at load 0.3, 2 + 40 ms. Queues stay short, so
//     fixed per-event cost dominates. It is the bypass for clos16-sat:
//     changes aimed at backlog, GC or heap size should not move it.
//   - clos16-observed: clos16-sat plus a metrics registry, a 2% lifecycle
//     tracer, the order-error oracle and 100 us probes. The only workload
//     where trace, metrics and telemetry work; against clos16-sat it
//     prices observation.
//   - churn-faults: one soak epoch (load 0.8, session churn, 2 switch
//     outages, 3 flaps, 2 derates, BER 1e-7, reliability and the delivery
//     oracle), 2 + 20 ms. Small Control packets, retransmissions, drop
//     paths and admission: a hot-path change that only helps static flows
//     shows its cost here.
//   - paper128-sharded: the paper's 128-host MIN at load 1.0, 1 + 2 ms, on
//     2 shards. The paper's scale, the largest event heap (~33k pending)
//     and set-up (~75 ms), and the only workload where parsim works.
//
// # Layers, metrics and what they should move
//
// The traced run (-trace 1) reports these per workload, except the
// microbenchmarks, which do not depend on the workload and run once per
// invocation. Each line names the layer, its metrics, and the end-to-end
// metric and workload a change to that layer should move.
//
//   - sim: sim.events, sim.events_per_s, sim.ns_per_event,
//     sim.max_pending, sim.mallocs_per_event, and the microbenchmarks
//     sim.schedule_pop_ns.4k / .32k and sim.schedule_pop_allocs
//     (Engine.After plus its pop at the 4k and 33k pending sets the
//     workloads reach). Moves sim_ms_per_s on paper128-sharded and
//     clos16-sat; little on clos16-light.
//   - switchsim, pqueue, link: switchsim.xbar_transfers,
//     switchsim.order_errors, pqueue.takeovers, link.sends, and the
//     microbenchmarks switchsim.forward_ns/_allocs (one packet through a
//     standalone radix-8 switch to a sink link), pqueue.takeover_ns,
//     pqueue.fifo_ns, pqueue.heap_ns (push+pop at depth 32) and
//     link.send_ns/_allocs (Send, arrival, credit return). Move
//     sim_ms_per_s and alloc_mb_per_sim_ms on clos16-sat and
//     paper128-sharded.
//   - hostif, traffic: network.backlog_at_horizon, hostif.retransmits, and
//     the microbenchmark hostif.submit_ns/_allocs (SubmitMessage of one
//     MTU through stamping and injection). Move peak_rss_mb and
//     sim_ms_per_s on clos16-sat; retransmission work shows on
//     churn-faults.
//   - session, admission, faults: session.setups, session.accept_ratio.
//     Move sim_ms_per_s on churn-faults only.
//   - trace, metrics: obs.overhead_frac, the twin's sim_ms_per_s over the
//     observed workload's, minus 1 (clos16-sat against clos16-observed).
//     Moves clos16-observed only; it is 0 on the workloads without
//     observers, which pay only nil checks.
//   - parsim: parsim.speedup_2v1 (1-shard Network.Run wall over 2-shard)
//     and parsim.relay_event_frac (2-shard events over 1-shard, minus 1),
//     from a 1-shard rerun whose fingerprint must equal the 2-shard one.
//     Move sim_ms_per_s and cpu_s_per_sim_ms on paper128-sharded; they
//     read 1 and 0 on the single-engine workloads.
//   - every layer: self_frac.<module> for the 18 listed modules plus
//     self_frac.runtime_gc, _alloc, _maps and _other, the share of
//     Network.Run CPU samples each owns (see AttributeTraces); they sum
//     to 1. runtime_gc should fall with alloc_mb_per_sim_ms.
//   - bench.profile_overhead_frac: unprofiled over profiled sim_ms_per_s,
//     minus 1.
//
// The traced run repeats input s: two unprofiled repetitions, one
// profiled with runtime/pprof and decoded with go tool pprof -traces, and
// beside them the twin and 1-shard repetitions, interleaved so that drift
// in host speed falls on both sides of each ratio. After the workloads it
// runs the microbenchmarks once with testing.Benchmark and writes the
// benchmark's own spans (setup, run and check per repetition, one per
// microbenchmark) to spans.jsonl. End-to-end numbers always come from the
// untraced run.
//
// BASELINE.md holds the numbers measured when the benchmark was defined,
// the spread behind each regression bound, and what drives that spread.
package bench
