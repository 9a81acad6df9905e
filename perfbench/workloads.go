package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/distagg"
	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/apps/stridescan"
	"mira/internal/baselines/fastswap"
	"mira/internal/cluster"
	"mira/internal/exec"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/planner"
	"mira/internal/rt"
	"mira/internal/serve"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/workload"
)

// sizes fixes every workload's problem size; the seed only picks the data.
type sizes struct {
	// planMCF is the size of each graph plan-mcf plans and runs
	// (mcf.DefaultConfig's 4:1 arc:node shape, scaled down so one plan
	// takes about half a second), and planGraphs how many it draws.
	planMCF    mcf.Config
	planGraphs int
	// swapMCF is the graph swap-mcf pages (mcf.DefaultConfig).
	swapMCF mcf.Config
	// distN is the element count of each offload-8node kernel.
	distN int64
	// serveDiv divides the app sizes of serve.DefaultTenantMix.
	serveDiv int64
	// serveRequests is each tenant's open-loop arrival count.
	serveRequests int
	// serveMeanScale multiplies each tenant's mean interarrival time.
	serveMeanScale float64
}

// fullSizes are the sizes the benchmark runs.
func fullSizes() sizes {
	return sizes{
		planMCF:        mcf.Config{Arcs: 1024, Nodes: 256, Iterations: 6, WalkLen: 32},
		planGraphs:     4,
		swapMCF:        mcf.Config{Arcs: 8192, Nodes: 2048, Iterations: 24, WalkLen: 64},
		distN:          1 << 16,
		serveDiv:       8,
		serveRequests:  1400,
		serveMeanScale: 4,
	}
}

// budgetFrac is the local-memory share of the batch workloads.
const budgetFrac = 4 // 25%

// offloadNodes and offloadStripe shape offload-8node's pool (the
// BENCH_offload.json 8-node cell's stripe).
const (
	offloadNodes  = 8
	offloadStripe = 16 << 10
)

// rep is one repetition of a workload: set-up, the timed phase, and the
// output check.
type rep struct {
	setup, inputs, oracle time.Duration
	wall                  time.Duration
	mem                   memDelta
	simTime               sim.Duration // the verified run's own clock
	wire                  int64        // bytes on the simulated interconnect
	p50, p99              sim.Duration // request latency (serve) or simTime
	attempted, failed     int
	refused               int // requests shed by admission control
	// base holds the sim-side counts every run reads from public
	// accessors; traced adds the ones only the traced run can see.
	base, traced counts
	host         hostLayers // traced only
	dumps        [32]byte   // digest of every far object's final bytes
	allocPass    bool       // timed phase perturbed by heap profiling
}

// signature is everything that must repeat exactly across repetitions of
// one seed, traced or not.
func (r *rep) signature() string {
	return fmt.Sprintf("sim=%d wire=%d p50=%d p99=%d attempted=%d failed=%d refused=%d dumps=%x %s",
		r.simTime, r.wire, r.p50, r.p99, r.attempted, r.failed, r.refused, r.dumps, r.base)
}

// counts are sim-side integer results keyed by raw counter name.
type counts map[string]int64

func (c counts) add(k string, v int64) { c[k] += v }

func (c counts) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, c[k])
	}
	return b.String()
}

// hostLayers are the traced run's host times per layer.
type hostLayers struct {
	execSelf, access, async, flush, plan time.Duration
}

func (h *hostLayers) addBackend(b *tracedBackend, run, flushAll time.Duration) {
	h.execSelf += run - b.totalTime()
	h.access += b.ns[opAccess]
	h.async += b.ns[opAsync]
	h.flush += b.ns[opFlush] + flushAll
}

// memDelta is the Go heap activity of a timed phase.
type memDelta struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	pause               time.Duration
}

// env is one benchmark process's state: sizes, the tracer of a traced
// repetition (nil when untraced), and the serve-chaos oracle cache.
type env struct {
	sz      sizes
	tr      *tracer
	replays map[string]map[string][]byte
}

type workloadFunc func(e *env, seed uint64) (*rep, error)

// workloads are the benchmark's workloads by name.
var workloads = map[string]workloadFunc{
	"plan-mcf":      planMCF,
	"swap-mcf":      swapMCF,
	"serve-chaos":   serveChaos,
	"offload-8node": offload8Node,
}

// imaged serves a workload's initial object images from memory: inputs are
// generated once, in set-up, and every Init in the timed phase (the
// planner's candidate runs included) copies them in.
type imaged struct {
	workload.Workload
	names  []string
	images map[string][]byte
}

func newImaged(w workload.Workload) (*imaged, error) {
	im := &imaged{Workload: w, images: map[string][]byte{}}
	if err := w.Init(im); err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", w.Name(), err)
	}
	return im, nil
}

// InitObject records one generated image (the set-up side of Init).
func (w *imaged) InitObject(name string, data []byte) error {
	if _, ok := w.images[name]; !ok {
		w.names = append(w.names, name)
	}
	w.images[name] = append([]byte(nil), data...)
	return nil
}

func (w *imaged) Init(t workload.ObjectIniter) error {
	for _, name := range w.names {
		if err := t.InitObject(name, w.images[name]); err != nil {
			return err
		}
	}
	return nil
}

func (w *imaged) Verify(d workload.ObjectDumper) error {
	v, ok := w.Workload.(workload.Verifier)
	if !ok {
		return nil
	}
	return v.Verify(d)
}

// farDumps returns every far-placed object's final bytes, by name.
func farDumps(prog *ir.Program, d workload.ObjectDumper) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, o := range prog.Objects {
		if o.Local {
			continue
		}
		b, err := d.DumpObject(o.Name)
		if err != nil {
			return nil, err
		}
		out[o.Name] = b
	}
	return out, nil
}

func digest(dumps map[string][]byte) [32]byte {
	names := make([]string, 0, len(dumps))
	for n := range dumps {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s:%d:", n, len(dumps[n]))
		h.Write(dumps[n])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// nativeDumps is the oracle: w run with every object in local memory, the
// harness's native system.
func nativeDumps(w workload.Workload) (map[string][]byte, error) {
	prog := w.Program()
	placements := map[string]rt.Placement{}
	var full int64
	for _, o := range prog.Objects {
		placements[o.Name] = rt.Placement{Kind: rt.PlaceLocal}
		full += o.SizeBytes()
	}
	r, err := rt.New(rt.Config{LocalBudget: full + (1 << 20), Placements: placements, Net: netmodel.DefaultConfig()},
		farmem.NewNode(farmem.DefaultNodeConfig()))
	if err != nil {
		return nil, err
	}
	if err := r.Bind(prog); err != nil {
		return nil, err
	}
	if err := w.Init(r); err != nil {
		return nil, err
	}
	ex, err := exec.New(prog, r, exec.Options{Params: w.Params()})
	if err != nil {
		return nil, err
	}
	clk := sim.NewClock(0)
	if _, err := ex.Run(clk); err != nil {
		return nil, err
	}
	if err := r.FlushAll(clk); err != nil {
		return nil, err
	}
	return farDumps(prog, r)
}

// setupBatch builds one repetition's inputs and native oracle for each of
// ws, timing both.
func (e *env) setupBatch(r *rep, parent int, ws ...workload.Workload) ([]*imaged, []map[string][]byte, error) {
	sp := e.tr.begin("setup", parent)
	defer e.tr.end(sp)
	t0 := time.Now()
	ims := make([]*imaged, len(ws))
	for i, w := range ws {
		im, err := newImaged(w)
		if err != nil {
			return nil, nil, err
		}
		ims[i] = im
	}
	r.inputs = time.Since(t0)
	oracles := make([]map[string][]byte, len(ws))
	for i, im := range ims {
		o, err := nativeDumps(im)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: native oracle: %w", im.Name(), err)
		}
		oracles[i] = o
	}
	r.setup = time.Since(t0)
	r.oracle = r.setup - r.inputs
	return ims, oracles, nil
}

// timer measures a timed phase's host time and Go heap activity.
type timer struct {
	t0 time.Time
	m0 runtime.MemStats
}

func (e *env) startTimed() *timer {
	e.tr.startCPU()
	t := &timer{}
	runtime.ReadMemStats(&t.m0)
	t.t0 = time.Now()
	return t
}

func (e *env) stopTimed(t *timer, r *rep) error {
	r.wall = time.Since(t.t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.mem = memDelta{
		totalAlloc: m1.TotalAlloc - t.m0.TotalAlloc,
		mallocs:    m1.Mallocs - t.m0.Mallocs,
		numGC:      m1.NumGC - t.m0.NumGC,
		pause:      time.Duration(m1.PauseTotalNs - t.m0.PauseTotalNs),
	}
	return e.tr.stopCPU()
}

// execute runs prog over r the way the harness runs a verified
// configuration (exec.New, Run, FlushAll), through the counting decorator
// when tracing, and returns the run's own clock.
func (e *env) execute(r *rep, parent int, prog *ir.Program, params map[string]exec.Value, rtm *rt.Runtime) (sim.Duration, error) {
	var be exec.Backend = rtm
	var tb *tracedBackend
	if e.tr != nil {
		tb = &tracedBackend{Runtime: rtm}
		be = tb
	}
	ex, err := exec.New(prog, be, exec.Options{Params: params})
	if err != nil {
		return 0, err
	}
	clk := sim.NewClock(0)
	rs := e.tr.begin("run", parent)
	var before allocSnapshot
	if e.tr.allocs() {
		before = snapshotAllocs()
		runtime.MemProfileRate = allocSampleRate
	}
	t0 := time.Now()
	_, err = ex.Run(clk)
	run := time.Since(t0)
	if e.tr.allocs() {
		runtime.MemProfileRate = defaultMemProfileRate
		e.tr.backendAllocs += backendAllocs(before, snapshotAllocs(), allocSampleRate)
		e.tr.backendCalls += tb.totalCalls()
		r.allocPass = true
	}
	e.tr.end(rs)
	if err != nil {
		return 0, err
	}
	fs := e.tr.begin("flush", parent)
	t0 = time.Now()
	err = rtm.FlushAll(clk)
	flush := time.Since(t0)
	e.tr.end(fs)
	if err != nil {
		return 0, err
	}
	if tb != nil {
		r.host.addBackend(tb, run, flush)
		r.traced.add("exec.backend_calls", tb.totalCalls())
	}
	return clk.Now().Sub(0), nil
}

// defaultMemProfileRate is the runtime's heap-profile sampling rate, saved
// before the allocation pass raises it.
var defaultMemProfileRate = runtime.MemProfileRate

// check verifies one run's output: the workload's own Verifier and
// byte-identity of every far object with the native oracle. A mismatch is
// a failed operation, never dropped.
func (e *env) check(r *rep, parent int, w *imaged, rtm *rt.Runtime, oracle map[string][]byte) (map[string][]byte, error) {
	vs := e.tr.begin("verify", parent)
	defer e.tr.end(vs)
	if err := w.Verify(rtm); err != nil {
		return nil, fmt.Errorf("%s: verifier: %w", w.Name(), err)
	}
	dumps, err := farDumps(w.Program(), rtm)
	if err != nil {
		return nil, err
	}
	for name, want := range oracle {
		if !bytes.Equal(dumps[name], want) {
			return nil, fmt.Errorf("%s: object %q differs from the native oracle", w.Name(), name)
		}
	}
	return dumps, nil
}

// runtimeCounts reads a finished run of prog's counters from the runtime's
// public accessors.
func runtimeCounts(c counts, r *rt.Runtime, prog *ir.Program) {
	c.add("rt.demand_misses", r.MissCount())
	c.add("rt.metadata_bytes", r.MetadataBytes())
	wq := r.WritebackQueueStats()
	c.add("rt.wbq_lines", wq.Lines)
	c.add("rt.wbq_pieces", wq.Pieces)
	c.add("rt.wbq_drains", wq.Drains)
	for i := 0; i < r.NumSections(); i++ {
		s := r.SectionStats(i)
		c.add("cache.hits", s.Hits)
		c.add("cache.misses", s.Misses)
		c.add("cache.evictions", s.Evictions)
		c.add("cache.conflicts", s.Conflicts)
	}
	ss := r.SwapStats()
	c.add("swap.major_faults", ss.MajorFaults)
	c.add("swap.minor_faults", ss.MinorFaults)
	c.add("swap.pages_fetched", ss.PagesFetched)
	c.add("swap.evictions", ss.Evictions)
	c.add("swap.writebacks", ss.Writebacks)
	pf := r.PrefetchStats()
	c.add("prefetch.issued", pf.Issued)
	c.add("prefetch.useful", pf.Useful)
	c.add("prefetch.late", pf.Late)
	ns := r.NetStats()
	c.add("transport.messages", r.Link().Messages())
	c.add("transport.ops", ns.Ops)
	c.add("transport.batches", ns.Batches)
	c.add("transport.pieces", ns.BatchedPieces)
	c.add("transport.retries", ns.Retries)
	c.add("transport.timeouts", ns.Timeouts)
	c.add("transport.breaker_trips", ns.BreakerTrips)
	c.add("transport.gave_up", ns.GaveUp)
	c.add("transport.backoff_ns", int64(ns.BackoffTime))
	c.add("transport.degraded_ns", int64(ns.DegradedTime))
	for _, n := range r.ClusterStats() {
		c.add("cluster.failovers", n.Failovers)
		c.add("cluster.repairs", n.Repairs)
		c.add("cluster.resync_bytes", n.ResyncBytes)
	}
	placementCounts(c, r, prog)
	fs := r.FaultStats()
	c.add("faults.injected", fs.DownRefusals+fs.Partitioned+fs.IOErrors+fs.Delays+fs.BitFlips+fs.Wipes)
	if eng := r.ScatterEngine(); eng != nil {
		st := eng.Stats()
		c.add("offload.calls", int64(st.Offloads))
		c.add("offload.subs", int64(st.Subs))
		c.add("offload.redispatches", int64(st.Redispatches))
	}
}

// placementCounts credits each far object's bytes to the first home of
// every placement range they span: the per-node share of the data that
// scatter-gather offload partitions by.
func placementCounts(c counts, r *rt.Runtime, prog *ir.Program) {
	pool := r.Pool()
	if pool == nil {
		return
	}
	table := pool.Table()
	for _, o := range prog.Objects {
		base, eb, n, ok := r.ObjectExtent(o.Name)
		if !ok {
			continue
		}
		lo, hi := base, base+uint64(eb)*uint64(n)
		for _, e := range table {
			from, to := max(lo, e.VBase), min(hi, e.VBase+e.Size)
			if from < to && len(e.Homes) > 0 {
				c.add(fmt.Sprintf("cluster.node%02d_bytes", e.Homes[0].Node), int64(to-from))
			}
		}
	}
}

// planCounts records the planner's outcome.
func planCounts(c counts, res *planner.Result) {
	c.add("planner.rounds", int64(len(res.Iterations)))
	for _, it := range res.Iterations {
		if it.Accepted {
			c.add("planner.accepted", 1)
		}
	}
	c.add("planner.baseline_ns", int64(res.BaselineTime))
	c.add("planner.final_ns", int64(res.FinalTime))
	c.add("offload.functions", int64(len(res.Offloaded)))
}

// planOptions are the planner settings harness.Run uses for a Mira run at
// budget, on a cluster when co is non-nil.
func planOptions(budget int64, co *cluster.Options, offload string) planner.Options {
	return planner.Options{
		LocalBudget: budget,
		Net:         netmodel.DefaultConfig(),
		NodeCfg:     farmem.DefaultNodeConfig(),
		Cluster:     co,
		Offload:     offload,
	}
}

// planAndRun plans w, replays the accepted configuration on a fresh runtime
// and checks its output — harness.Run(Mira, ..., Verify: true) with the
// steps timed apart.
func (e *env) planAndRun(r *rep, parent int, w *imaged, oracle map[string][]byte, popts planner.Options) (map[string][]byte, error) {
	ps := e.tr.begin("plan", parent)
	t0 := time.Now()
	res, err := planner.Plan(w, popts)
	r.host.plan += time.Since(t0)
	e.tr.end(ps)
	if err != nil {
		return nil, fmt.Errorf("%s: plan: %w", w.Name(), err)
	}
	planCounts(r.base, res)
	cfg := res.Config
	if popts.Cluster != nil {
		co := *popts.Cluster
		cfg.Cluster = &co
		cfg.Faults = nil
	}
	rtm, err := rt.New(cfg, farmem.NewNode(popts.NodeCfg))
	if err != nil {
		return nil, err
	}
	if err := rtm.Bind(res.Program); err != nil {
		return nil, err
	}
	if err := w.Init(rtm); err != nil {
		return nil, err
	}
	d, err := e.execute(r, parent, res.Program, w.Params(), rtm)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.Name(), err)
	}
	r.simTime += d
	r.wire += rtm.Link().BytesMoved()
	runtimeCounts(r.base, rtm, res.Program)
	return e.check(r, parent, w, rtm, oracle)
}

func withSeed(c mcf.Config, seed uint64) mcf.Config {
	c.Seed = seed
	return c
}

// planMCF: MCF on Mira at 25% local memory — the full iterative planner,
// then one verified run of the accepted configuration — on planGraphs
// graphs drawn from the seed. Planner decisions differ between graphs, so
// one graph's host and sim times swing with the seed; several per
// repetition average that out.
func planMCF(e *env, seed uint64) (*rep, error) {
	r := newRep()
	root := e.tr.begin("plan-mcf", 0)
	defer e.tr.end(root)
	ws := make([]workload.Workload, e.sz.planGraphs)
	for i := range ws {
		ws[i] = mcf.New(withSeed(e.sz.planMCF, sim.SplitSeed(seed, fmt.Sprintf("plan-mcf/%d", i))))
	}
	ims, oracles, err := e.setupBatch(r, root, ws...)
	if err != nil {
		return nil, err
	}
	return e.planAll(r, root, ims, oracles, func(w *imaged) planner.Options {
		return planOptions(w.FullMemoryBytes()/budgetFrac, nil, "")
	})
}

// planAll is the timed phase of a planned workload: plan and verify-run
// each of ims in turn.
func (e *env) planAll(r *rep, root int, ims []*imaged, oracles []map[string][]byte, popts func(*imaged) planner.Options) (*rep, error) {
	all := map[string][]byte{}
	t := e.startTimed()
	var err error
	for i, w := range ims {
		var dumps map[string][]byte
		dumps, err = e.planAndRun(r, root, w, oracles[i], popts(w))
		if err != nil {
			break
		}
		for name, d := range dumps {
			all[fmt.Sprintf("%d/%s", i, name)] = d
		}
	}
	if err := e.stopTimed(t, r); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	return r.finish(len(ims), all), nil
}

// swapMCF: the same MCF program on FastSwap at 25% — 4 KiB demand paging
// with readahead, no planner and no cache sections.
func swapMCF(e *env, seed uint64) (*rep, error) {
	r := newRep()
	root := e.tr.begin("swap-mcf", 0)
	defer e.tr.end(root)
	ims, oracles, err := e.setupBatch(r, root, mcf.New(withSeed(e.sz.swapMCF, seed)))
	if err != nil {
		return nil, err
	}
	w := ims[0]
	t := e.startTimed()
	rtm, err := fastswap.New(w, fastswap.Options{
		LocalBudget: w.FullMemoryBytes() / budgetFrac,
		Net:         netmodel.DefaultConfig(),
		NodeCfg:     farmem.DefaultNodeConfig(),
	})
	var d sim.Duration
	if err == nil {
		d, err = e.execute(r, root, w.Program(), w.Params(), rtm)
	}
	if err := e.stopTimed(t, r); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("%s: fastswap run: %w", w.Name(), err)
	}
	r.simTime = d
	r.wire = rtm.Link().BytesMoved()
	runtimeCounts(r.base, rtm, w.Program())
	dumps, err := e.check(r, root, w, rtm, oracles[0])
	if err != nil {
		return nil, err
	}
	return r.finish(1, dumps), nil
}

// offload8Node: distagg's agg (read-only reduction) and filter
// (write-through with fenced commit) kernels on an 8-node pool with the
// planner racing scatter-gather offload (Offload "auto").
func offload8Node(e *env, seed uint64) (*rep, error) {
	r := newRep()
	root := e.tr.begin("offload-8node", 0)
	defer e.tr.end(root)
	kernels := []string{"agg", "filter"}
	ws := make([]workload.Workload, len(kernels))
	for i, k := range kernels {
		ws[i] = distagg.New(distagg.Config{N: e.sz.distN, Seed: seed, Mode: k})
	}
	ims, oracles, err := e.setupBatch(r, root, ws...)
	if err != nil {
		return nil, err
	}
	return e.planAll(r, root, ims, oracles, func(w *imaged) planner.Options {
		co := &cluster.Options{
			Nodes:       offloadNodes,
			Seed:        1,
			StripeBytes: offloadStripe,
			NodeCfg:     farmem.DefaultNodeConfig(),
			Net:         netmodel.DefaultConfig(),
		}
		return planOptions(w.FullMemoryBytes()/budgetFrac, co, "auto")
	})
}

func newRep() *rep { return &rep{base: counts{}, traced: counts{}} }

// finish completes a batch repetition of ops verified runs: each run is one
// request, so its latency percentiles are the run's own clock.
func (r *rep) finish(ops int, dumps map[string][]byte) *rep {
	r.attempted = ops
	r.p50, r.p99 = r.simTime, r.simTime
	r.dumps = digest(dumps)
	return r
}

// tenantMix is serve.DefaultTenantMix with its apps built from seed at
// 1/serveDiv of their default sizes, serveRequests arrivals per tenant and
// mean interarrival times scaled by serveMeanScale; weights, SLOs, queue
// caps, worker counts and arrival processes are the default mix's.
func tenantMix(sz sizes, seed uint64) ([]serve.TenantSpec, error) {
	specs := serve.DefaultTenantMix()
	apps := map[string]workload.Workload{
		"sum":    arraysum.New(arraysum.Config{N: (1 << 12) / sz.serveDiv, Seed: seed}),
		"scan":   seqscan.New(seqscan.Config{N: (1 << 11) / sz.serveDiv, Seed: seed}),
		"stride": stridescan.New(stridescan.Config{N: (1 << 11) / sz.serveDiv, Seed: seed}),
	}
	for i := range specs {
		s := &specs[i]
		app, ok := apps[s.Name]
		if !ok {
			return nil, fmt.Errorf("serve-chaos: default mix has an unknown tenant %q", s.Name)
		}
		im, err := newImaged(app)
		if err != nil {
			return nil, err
		}
		s.Workload = im
		s.Budget = im.FullMemoryBytes() / 2
		s.Requests = sz.serveRequests
		s.Mean = sim.Duration(float64(s.Mean) * sz.serveMeanScale)
	}
	return specs, nil
}

// serveChaos: open-loop three-tenant serving with admission, elastic
// reclaim and the chaos schedule on node 0 of every tenant's 2-node, R=2
// pool.
func serveChaos(e *env, seed uint64) (*rep, error) {
	r := newRep()
	root := e.tr.begin("serve-chaos", 0)
	defer e.tr.end(root)
	sp := e.tr.begin("setup", root)
	t0 := time.Now()
	specs, err := tenantMix(e.sz, seed)
	r.inputs = time.Since(t0)
	r.setup = r.inputs
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	opts := serve.Options{Seed: seed, Admission: true, Elastic: true, Faults: "chaos"}
	if e.tr != nil {
		opts.Trace = trace.New()
	}
	t := e.startTimed()
	ss := e.tr.begin("serve", root)
	res, err := serve.Run(specs, opts)
	e.tr.end(ss)
	if err := e.stopTimed(t, r); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	vs := e.tr.begin("verify", root)
	defer e.tr.end(vs)
	all := map[string][]byte{}
	for i, tr := range res.Tenants {
		r.attempted += tr.Requests
		r.refused += tr.RejectedTotal()
		// Admitted requests that never completed are lost.
		r.failed += tr.Admitted - tr.Completed
		want, err := e.replay(r, specs[i], tr.Admitted)
		if err != nil {
			return nil, fmt.Errorf("serve: %s: native replay: %w", tr.Name, err)
		}
		for name, d := range want {
			if !bytes.Equal(tr.Dumps[name], d) {
				r.failed += tr.Completed
				fmt.Fprintf(stderrLog, "serve-chaos: tenant %s object %q differs from its native replay\n", tr.Name, name)
				break
			}
		}
		for name, d := range tr.Dumps {
			all[tr.Name+"/"+name] = d
		}
		if tr.P50 > r.p50 {
			r.p50 = tr.P50
		}
		if tr.P99 > r.p99 {
			r.p99 = tr.P99
		}
		r.base.add("serve.admitted", int64(tr.Admitted))
		r.base.add("serve.admitted{tenant="+tr.Name+"}", int64(tr.Admitted))
		r.base.add("serve.shed_queue", int64(tr.Rejected[serve.RejectQueue]))
		r.base.add("serve.shed_slo", int64(tr.Rejected[serve.RejectSLO]))
		r.base.add("serve.shed_degraded", int64(tr.Rejected[serve.RejectDegraded]))
		r.base.add(fmt.Sprintf("serve.max_ns{tenant=%s}", tr.Name), int64(tr.Max))
	}
	r.base.add("serve.leases", int64(res.Leases))
	r.simTime = res.Elapsed
	r.wire = res.BytesOnWire
	r.dumps = digest(all)
	if opts.Trace != nil {
		if err := registryCounts(r.traced, opts.Trace.Registry()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replay returns the native replay of spec's first admitted requests,
// cached per (tenant, admitted): repetitions of one seed admit the same
// requests. Its host time is oracle set-up.
func (e *env) replay(r *rep, spec serve.TenantSpec, admitted int) (map[string][]byte, error) {
	key := fmt.Sprintf("%s/%d", spec.Name, admitted)
	if d, ok := e.replays[key]; ok {
		return d, nil
	}
	t0 := time.Now()
	d, err := serve.NativeReplay(spec, admitted)
	if err != nil {
		return nil, err
	}
	r.oracle += time.Since(t0)
	e.replays[key] = d
	return d, nil
}

// registryMap maps the serving run's metrics-registry counters onto the
// benchmark's raw counter names.
var registryMap = map[string]string{
	"cache.hit":            "cache.hits",
	"cache.miss":           "cache.misses",
	"cache.evict":          "cache.evictions",
	"cluster.failovers":    "cluster.failovers",
	"net.ops":              "transport.ops",
	"net.retries":          "transport.retries",
	"net.timeouts":         "transport.timeouts",
	"net.breaker.trips":    "transport.breaker_trips",
	"prefetch.issued":      "prefetch.issued",
	"prefetch.useful":      "prefetch.useful",
	"swap.fault.major":     "swap.major_faults",
	"swap.fault.minor":     "swap.minor_faults",
	"swap.evict":           "swap.evictions",
	"swap.prefetch":        "prefetch.issued",
	"swap.prefetch.useful": "prefetch.useful",
}

// registryCounts reads the counters a serving run's tracer collected. Per-
// thread duplicates (tid labels) are skipped.
func registryCounts(c counts, reg *trace.Registry) error {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return err
	}
	var m struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
			Sum   int64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		return err
	}
	for name, v := range m.Counters {
		if strings.Contains(name, "tid=") {
			continue
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if k, ok := registryMap[base]; ok {
			c.add(k, v)
		}
	}
	// The runtime's demand misses: section misses plus swap major faults.
	c.add("rt.demand_misses", c["cache.misses"]+c["swap.major_faults"])
	if h, ok := m.Histograms["net.batch.pieces"]; ok {
		c.add("transport.batches", h.Count)
		c.add("transport.pieces", h.Sum)
	}
	return nil
}
