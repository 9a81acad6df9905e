// Command perfbench is the repository benchmark. It runs one workload for a
// fixed host-time budget, checks every output against the native oracle,
// and prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the same repetitions run first untraced and then traced
// (a counting exec.Backend decorator, spans, a CPU profile of every timed
// phase, and one heap-profiled pass), and the metrics are the per-layer
// ones. Run it from the repository root:
//
//	bash perfbench/run.sh --workload plan-mcf --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed for development runs; heldOutSeed is reserved
// for confirming a claimed gain on data not used while writing it.
const (
	defaultSeed = 1
	heldOutSeed = 1009
)

// stderrLog receives diagnostics.
var stderrLog io.Writer = os.Stderr

func main() {
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	os.Exit(cli(os.Args[1:], os.Stdout))
}

func cli(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderrLog)
	name := fs.String("workload", "", "workload: plan-mcf, swap-mcf, serve-chaos or offload-8node")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 20, "host seconds of repetitions to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderrLog, "perfbench: need -workload {plan-mcf,swap-mcf,serve-chaos,offload-8node}, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	res, err := measure(wf, *seed, *seconds, *traced == 1, fullSizes())
	if err != nil {
		fmt.Fprintf(stderrLog, "perfbench: %v\n", err)
		return 1
	}
	if res.tracer != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := res.tracer.writeSpans(path); err != nil {
			fmt.Fprintf(stderrLog, "perfbench: spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	var ms []metric
	if *traced == 1 {
		ms = res.layerMetrics()
	} else {
		ms = res.endToEnd()
	}
	return report(stdout, *name, *seed, res, ms)
}

// result is one benchmark run: every repetition, untraced then traced.
type result struct {
	reps, tracedReps   []*rep
	first, firstTraced *rep
	attempted, failed  int
	mismatch           string // first exact-repeat violation
	tracer             *tracer
}

// correct reports whether every output checked out and every sim-side
// result repeated exactly.
func (r *result) correct() bool {
	return r.failed == 0 && r.mismatch == "" && len(r.reps) > 0
}

// measure runs wf for the host-time budget: untraced repetitions, then,
// when traced, as many traced ones and one heap-profiled pass.
func measure(wf workloadFunc, seed uint64, seconds float64, traced bool, sz sizes) (*result, error) {
	res := &result{}
	e := &env{sz: sz, replays: map[string]map[string][]byte{}}
	budget := seconds
	if traced {
		budget /= 2
	}
	res.reps = res.loop(e, wf, seed, budget, 3)
	if len(res.reps) == 0 {
		return nil, errors.New("no repetition succeeded")
	}
	if !traced {
		return res, nil
	}
	e.tr = newTracer()
	e.tr.profile = true
	res.tracer = e.tr
	res.tracedReps = res.loop(e, wf, seed, budget, 2)
	e.tr.profile = false
	e.tr.allocPass = true
	res.tracedReps = append(res.tracedReps, res.loop(e, wf, seed, 0, 1)...)
	if len(res.tracedReps) == 0 {
		return nil, errors.New("no traced repetition succeeded")
	}
	return res, nil
}

// loop repeats wf until budget host seconds have passed and at least min
// repetitions ran, checking that every sim-side result repeats exactly.
func (res *result) loop(e *env, wf workloadFunc, seed uint64, budget float64, min int) []*rep {
	var reps []*rep
	start := time.Now()
	for i := 0; i < min || time.Since(start).Seconds() < budget; i++ {
		r, err := wf(e, seed)
		if err != nil {
			res.attempted++
			res.failed++
			fmt.Fprintf(stderrLog, "perfbench: repetition %d: %v\n", i, err)
			continue
		}
		res.attempted += r.attempted
		res.failed += r.failed
		res.checkRepeat(r, e.tr != nil)
		reps = append(reps, r)
	}
	return reps
}

// checkRepeat compares r with the run's first repetition: sim time, wire
// bytes, latencies, counts and dumps must be identical, traced or not, and
// the traced-only counts identical across traced repetitions.
func (res *result) checkRepeat(r *rep, traced bool) {
	if res.first == nil {
		res.first = r
	}
	if traced && res.firstTraced == nil {
		res.firstTraced = r
	}
	if res.mismatch != "" {
		return
	}
	if a, b := res.first.signature(), r.signature(); a != b {
		res.mismatch = fmt.Sprintf("repetition differs from the first:\n  first: %s\n  this:  %s", a, b)
	} else if traced && r.traced.String() != res.firstTraced.traced.String() {
		res.mismatch = fmt.Sprintf("traced counts differ:\n  first: %s\n  this:  %s", res.firstTraced.traced, r.traced)
	}
	if res.mismatch != "" {
		fmt.Fprintf(stderrLog, "perfbench: %s\n", res.mismatch)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	// samples, when set, are the per-repetition values value is the
	// median of.
	samples []float64
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles (linear interpolation
// between closest ranks).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.75)
}

// tailPercentile returns the highest of p99, p95, p90 and p75 with at least
// ten samples beyond it (nearest rank), and its value; ok is false when
// there are too few samples for any.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []int{99, 95, 90, 75} {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// samples collects f over the repetitions whose timed phase was not
// perturbed by the allocation pass.
func samples(reps []*rep, f func(*rep) float64) []float64 {
	var xs []float64
	for _, r := range reps {
		if !r.allocPass {
			xs = append(xs, f(r))
		}
	}
	return xs
}

// timed is the median of f over reps, keeping the samples for the table.
func timed(name, unit string, reps []*rep, f func(*rep) float64) metric {
	xs := samples(reps, f)
	return metric{name: name, unit: unit, value: median(xs), samples: xs}
}

func secs(d time.Duration) float64 { return d.Seconds() }

// endToEnd are the untraced run's metrics.
func (res *result) endToEnd() []metric {
	reps := res.reps
	first := reps[0]
	var attempted, bad int
	for _, r := range reps {
		attempted += r.attempted
		bad += r.failed + r.refused
	}
	return []metric{
		timed("setup_s", "s", reps, func(r *rep) float64 { return secs(r.setup) }),
		timed("wall_s", "s", reps, func(r *rep) float64 { return secs(r.wall) }),
		timed("alloc_mb", "MB", reps, func(r *rep) float64 { return float64(r.mem.totalAlloc) / 1e6 }),
		{name: "sim_ms", unit: "ms", value: float64(first.simTime) / 1e6},
		{name: "wire_mb", unit: "MB", value: float64(first.wire) / 1e6},
		{name: "sim_p50_us", unit: "us", value: float64(first.p50) / 1e3},
		{name: "sim_p99_us", unit: "us", value: float64(first.p99) / 1e3},
		{name: "ok_frac", unit: "ratio", value: ratio(float64(attempted-bad), float64(attempted))},
	}
}

// layerMetrics are the traced run's per-layer metrics.
func (res *result) layerMetrics() []metric {
	traced := res.tracedReps
	t := traced[0]
	c := counts{}
	for k, v := range t.base {
		c[k] = v
	}
	for k, v := range t.traced {
		c[k] += v
	}
	host := func(name string, f func(h hostLayers) time.Duration) metric {
		return timed(name, "s", traced, func(r *rep) float64 { return secs(f(r.host)) })
	}
	execSelf := host("exec.self_s", func(h hostLayers) time.Duration { return h.execSelf })
	plan := host("planner.plan_s", func(h hostLayers) time.Duration { return h.plan })
	var maxNode, allNodes int64
	for k, v := range c {
		if strings.HasPrefix(k, "cluster.node") {
			allNodes += v
			if v > maxNode {
				maxNode = v
			}
		}
	}
	wallU := median(samples(res.reps, func(r *rep) float64 { return secs(r.wall) }))
	wallT := median(samples(traced, func(r *rep) float64 { return secs(r.wall) }))
	var attempted, bad int
	for _, r := range traced {
		attempted += r.attempted
		bad += r.failed + r.refused
	}
	var rss syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &rss) // informational; zero if unavailable
	n := func(k string) float64 { return float64(c[k]) }
	ms := []metric{
		execSelf,
		{name: "exec.ns_per_call", unit: "ns", value: ratio(1e9*execSelf.value, n("exec.backend_calls"))},
		{name: "exec.backend_calls", unit: "count", value: n("exec.backend_calls")},
		host("rt.access_s", func(h hostLayers) time.Duration { return h.access }),
		host("rt.async_s", func(h hostLayers) time.Duration { return h.async }),
		host("rt.flush_s", func(h hostLayers) time.Duration { return h.flush }),
		{name: "rt.mallocs_per_call", unit: "count", value: ratio(res.tracer.backendAllocs, float64(res.tracer.backendCalls))},
		{name: "rt.demand_misses", unit: "count", value: n("rt.demand_misses")},
		{name: "rt.metadata_kb", unit: "KiB", value: n("rt.metadata_bytes") / 1024},
		{name: "rt.wbq_lines", unit: "count", value: n("rt.wbq_lines")},
		{name: "rt.wbq_pieces_per_drain", unit: "count", value: ratio(n("rt.wbq_pieces"), n("rt.wbq_drains"))},
		{name: "cache.hits", unit: "count", value: n("cache.hits")},
		{name: "cache.misses", unit: "count", value: n("cache.misses")},
		{name: "cache.hit_ratio", unit: "ratio", value: ratio(n("cache.hits"), n("cache.hits")+n("cache.misses"))},
		{name: "cache.evictions", unit: "count", value: n("cache.evictions")},
		{name: "cache.conflicts", unit: "count", value: n("cache.conflicts")},
		{name: "swap.major_faults", unit: "count", value: n("swap.major_faults")},
		{name: "swap.minor_faults", unit: "count", value: n("swap.minor_faults")},
		{name: "swap.pages_fetched", unit: "count", value: n("swap.pages_fetched")},
		{name: "swap.evictions", unit: "count", value: n("swap.evictions")},
		{name: "swap.writebacks", unit: "count", value: n("swap.writebacks")},
		{name: "prefetch.issued", unit: "count", value: n("prefetch.issued")},
		{name: "prefetch.accuracy", unit: "ratio", value: ratio(n("prefetch.useful"), n("prefetch.issued"))},
		{name: "prefetch.coverage", unit: "ratio", value: ratio(n("prefetch.useful"), n("prefetch.useful")+n("rt.demand_misses"))},
		{name: "prefetch.late", unit: "count", value: n("prefetch.late")},
		{name: "transport.messages", unit: "count", value: n("transport.messages")},
		{name: "transport.ops", unit: "count", value: n("transport.ops")},
		{name: "transport.pieces_per_batch", unit: "count", value: ratio(n("transport.pieces"), n("transport.batches"))},
		{name: "transport.retries", unit: "count", value: n("transport.retries")},
		{name: "transport.timeouts", unit: "count", value: n("transport.timeouts")},
		{name: "transport.breaker_trips", unit: "count", value: n("transport.breaker_trips")},
		{name: "transport.gave_up", unit: "count", value: n("transport.gave_up")},
		{name: "transport.backoff_ms", unit: "ms", value: n("transport.backoff_ns") / 1e6},
		{name: "transport.degraded_ms", unit: "ms", value: n("transport.degraded_ns") / 1e6},
		plan,
		{name: "planner.rounds", unit: "count", value: n("planner.rounds")},
		{name: "planner.accept_ratio", unit: "ratio", value: ratio(n("planner.accepted"), n("planner.rounds"))},
		{name: "planner.s_per_round", unit: "s", value: ratio(plan.value, n("planner.rounds"))},
		{name: "planner.baseline_sim_ms", unit: "ms", value: n("planner.baseline_ns") / 1e6},
		{name: "planner.final_sim_ms", unit: "ms", value: n("planner.final_ns") / 1e6},
		{name: "planner.final_minus_run_ns", unit: "ns", value: planGap(c, t)},
		{name: "offload.calls", unit: "count", value: n("offload.calls")},
		{name: "offload.subs", unit: "count", value: n("offload.subs")},
		{name: "offload.redispatches", unit: "count", value: n("offload.redispatches")},
		{name: "offload.functions", unit: "count", value: n("offload.functions")},
		{name: "cluster.failovers", unit: "count", value: n("cluster.failovers")},
		{name: "cluster.repairs", unit: "count", value: n("cluster.repairs")},
		{name: "cluster.resync_mb", unit: "MB", value: n("cluster.resync_bytes") / 1e6},
		{name: "cluster.max_node_share", unit: "ratio", value: ratio(float64(maxNode), float64(allNodes))},
		{name: "faults.injected", unit: "count", value: n("faults.injected")},
		{name: "serve.admitted", unit: "count", value: n("serve.admitted")},
		{name: "serve.shed_queue", unit: "count", value: n("serve.shed_queue")},
		{name: "serve.shed_slo", unit: "count", value: n("serve.shed_slo")},
		{name: "serve.shed_degraded", unit: "count", value: n("serve.shed_degraded")},
		{name: "serve.leases", unit: "count", value: n("serve.leases")},
		{name: "go.mallocs", unit: "count", value: median(samples(traced, func(r *rep) float64 { return float64(r.mem.mallocs) }))},
		{name: "go.gc_cycles", unit: "count", value: median(samples(traced, func(r *rep) float64 { return float64(r.mem.numGC) }))},
		{name: "go.gc_pause_ms", unit: "ms", value: 1e3 * median(samples(traced, func(r *rep) float64 { return secs(r.mem.pause) }))},
		{name: "go.peak_rss_mb", unit: "MB", value: float64(rss.Maxrss) * 1024 / 1e6},
		{name: "setup.inputs_s", unit: "s", value: median(samples(res.reps, func(r *rep) float64 { return secs(r.inputs) }))},
		{name: "setup.oracle_s", unit: "s", value: oracleTime(res.reps)},
		{name: "trace.overhead_frac", unit: "ratio", value: wallT/wallU - 1},
		{name: "failed_frac", unit: "ratio", value: ratio(float64(bad), float64(attempted))},
	}
	shares := res.tracer.cpu.shares()
	for _, l := range profLayers {
		ms = append(ms, metric{name: "prof." + l, unit: "share", value: shares[l]})
	}
	return ms
}

// planGap is the planner's reported FinalTime minus the verified run's own
// clock: harness.runMira reports the former as the run's time.
func planGap(c counts, r *rep) float64 {
	if c["planner.rounds"] == 0 {
		return 0
	}
	return float64(c["planner.final_ns"] - int64(r.simTime))
}

// oracleTime is the median oracle set-up time over the repetitions that
// built one (serve-chaos builds its replays once per run).
func oracleTime(reps []*rep) float64 {
	var xs []float64
	for _, r := range reps {
		if r.oracle > 0 {
			xs = append(xs, secs(r.oracle))
		}
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints a human-readable table and then the JSON result line.
func report(w io.Writer, name string, seed uint64, res *result, ms []metric) int {
	fmt.Fprintf(w, "perfbench %s seed %d: %d untraced + %d traced repetitions, %d operations, %d failed\n",
		name, seed, len(res.reps), len(res.tracedReps), res.attempted, res.failed)
	fmt.Fprintf(w, "repeat signature: %x\n", sha256.Sum256([]byte(res.first.signature())))
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]val{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line := fmt.Sprintf("  %-28s %14.6g %-6s", m.name, v, m.unit)
		if m.samples != nil {
			q1, q3 := quartiles(m.samples)
			line += fmt.Sprintf("  median of n=%d, quartiles %.6g..%.6g", len(m.samples), q1, q3)
			if p, pv, ok := tailPercentile(m.samples); ok {
				line += fmt.Sprintf(", p%d %.6g", p, pv)
			}
		}
		fmt.Fprintln(w, line)
		out[m.name] = val{Value: v, Unit: m.unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintf(stderrLog, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(buf))
	return 0
}
