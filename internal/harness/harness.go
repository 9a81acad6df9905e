// Package harness runs one workload under one far-memory system at one
// local-memory budget — the inner loop of every figure in the paper's
// evaluation. Systems: native (full local memory; the normalization
// denominator of all figures), Mira (full planner), Mira's swap-only
// baseline, FastSwap, Leap, and AIFM.
package harness

import (
	"fmt"

	"mira/internal/baselines/aifm"
	"mira/internal/baselines/fastswap"
	"mira/internal/baselines/leap"
	"mira/internal/cluster"
	"mira/internal/exec"
	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/ir"
	"mira/internal/netmodel"
	"mira/internal/planner"
	"mira/internal/prefetch"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
	"mira/internal/workload"
)

// System identifies a far-memory system.
type System string

// The systems the evaluation compares.
const (
	Native   System = "native"
	Mira     System = "mira"
	MiraSwap System = "mira-swap" // Mira's iteration-0 generic swap config
	FastSwap System = "fastswap"
	Leap     System = "leap"
	AIFM     System = "aifm"
)

// AllSystems lists the far-memory systems (excluding native).
var AllSystems = []System{Mira, FastSwap, Leap, AIFM}

// Options tunes a harness run.
type Options struct {
	// Budget is the local memory in bytes (ignored for Native).
	Budget int64
	// Net overrides the interconnect model.
	Net netmodel.Config
	// NodeCfg overrides the far node.
	NodeCfg farmem.NodeConfig
	// Planner customizes Mira's planning. Harness always sets the budget,
	// far-memory backend and the knobs it exposes itself (Net, NodeCfg,
	// Cluster, Compress, Offload, OffloadChunk, Plane, WritebackQueueLines,
	// Trace), so only the remaining fields — MaxIterations, SampleRatios,
	// Techniques and the like — are honoured here.
	Planner planner.Options
	// Verify checks workload output after the run when the workload
	// implements workload.Verifier.
	Verify bool
	// AIFM customizes the AIFM baseline's library model (budget and
	// interconnect are overridden by Budget/Net).
	AIFM aifm.Options
	// Faults injects the deterministic fault schedule into the run's
	// transport (nil: fault-free). Native runs never see faults — they
	// are the golden reference the faulted runs are compared against.
	Faults *faults.Config
	// Resilience overrides the transport's retry/deadline/breaker policy.
	Resilience *transport.Policy
	// Nodes, when > 0, shards far memory across that many far nodes behind
	// a cluster.Pool (placement, replication, failover). Zero keeps the
	// classic single-node data path. Native runs ignore it — they hold
	// everything local and remain the golden reference either way.
	Nodes int
	// Replicas is the replication factor R in cluster mode (default 1:
	// each placement range lives on R nodes, writes fan out to all of
	// them, reads fail over between them).
	Replicas int
	// FaultNode selects which cluster node receives Options.Faults when
	// Nodes > 0 (clamped to the node range). The other nodes stay clean —
	// that asymmetry is what makes replicated failover observable.
	FaultNode int
	// StripeBytes overrides the cluster placement granularity (0:
	// cluster.DefaultStripeBytes). Tests use small stripes so test-sized
	// heaps actually spread across nodes.
	StripeBytes uint64
	// NoBatching disables the vectored-I/O data path end to end: Mira's
	// doorbell-batched prefetch and async write-back pipeline, and Leap's
	// batched prefetch gather — the PR 2 data path, kept for A/B
	// benchmarking.
	NoBatching bool
	// WritebackQueueLines overrides the runtime's async write-back queue
	// bound (0 = default, negative = disabled). NoBatching forces it off
	// unless set explicitly.
	WritebackQueueLines int
	// Trace, when non-nil, records the run's events and metrics into the
	// deterministic tracing layer. For Mira it attaches to the timed
	// re-run of the accepted configuration (and to the planner's
	// iteration timeline), never to the planner's internal sampling runs.
	Trace *trace.Tracer
	// Prefetch, when non-nil, replaces the system's stock prefetching with
	// the named zoo policy: Mira runs it on the line plane (one instance
	// per cache section, via RunLinePolicy); the swap systems (mira-swap,
	// fastswap, leap) run it on the page plane (via RunPagePolicy).
	Prefetch *prefetch.Spec
	// Compress selects the wire-compression mode for Mira and MiraSwap
	// runs ("", "off", "on", "auto" — see planner.Options.Compress). The
	// other systems model stock far-memory stacks and ignore it.
	Compress string
	// Tier, when non-nil, puts a simulated SSD capacity tier under every
	// cluster node's DRAM (hot granules in DRAM, cold ones demoted to
	// flash and promoted back on access). Requires Nodes > 0.
	Tier *cluster.TierConfig
	// Plane selects Mira's data-plane mode ("page", "line", or "hybrid" —
	// see planner.Options.Plane). Mira-only and mutually exclusive with
	// Prefetch: the zoo policies pick their own plane.
	Plane string
	// Offload selects the scatter-gather offload mode for Mira runs ("",
	// "off", "on", "auto" — see planner.Options.Offload).
	Offload string
	// OffloadChunk overrides the offload engine's streaming chunk size in
	// bytes (0 = netmodel.DefaultStreamChunk).
	OffloadChunk int
}

// wbqLines resolves the write-back queue knob: NoBatching runs the PR 2
// data path, which had no queue.
func (o Options) wbqLines() int {
	if o.NoBatching && o.WritebackQueueLines == 0 {
		return -1
	}
	return o.WritebackQueueLines
}

func (o Options) faultsEnabled() bool { return o.Faults != nil && o.Faults.Enabled() }

// clusterOpts translates the harness knobs into cluster.Options, or nil in
// single-node mode. withFaults moves Options.Faults onto the chosen node's
// fault domain (planning runs pass false: planning is offline and
// fault-free).
func (o Options) clusterOpts(withFaults bool) *cluster.Options {
	if o.Nodes <= 0 {
		return nil
	}
	co := &cluster.Options{
		Nodes:       o.Nodes,
		Replicas:    o.Replicas,
		Seed:        1,
		StripeBytes: o.StripeBytes,
		NodeCfg:     o.NodeCfg,
		Net:         o.Net,
		Tier:        o.Tier,
	}
	if o.Resilience != nil {
		pol := *o.Resilience
		co.Policy = &pol
	}
	if withFaults && o.faultsEnabled() {
		at := o.FaultNode
		if at < 0 {
			at = 0
		}
		if at >= o.Nodes {
			at = o.Nodes - 1
		}
		co.Faults = make([]*faults.Config, o.Nodes)
		fc := *o.Faults
		co.Faults[at] = &fc
	}
	return co
}

// backend routes the run's fault schedule and resilience policy onto cfg —
// the one place every system's timed-run backend is assembled. A
// single-node run carries both at the top level; a cluster run replaces
// cfg.Cluster with clusterOpts(true), which moves the schedule into
// FaultNode's fault domain and the policy into Cluster.Policy.
func (o Options) backend(cfg rt.Config) rt.Config {
	cfg.Faults, cfg.Resilience = o.Faults, o.Resilience
	if co := o.clusterOpts(true); co != nil {
		cfg.Cluster, cfg.Faults = co, nil
	}
	return cfg
}

// swapOptions is the backend a page-swap baseline runs on: the budget and
// interconnect plus the routed faults, resilience and cluster.
func (o Options) swapOptions() fastswap.Options {
	b := o.backend(rt.Config{})
	return fastswap.Options{
		LocalBudget: o.Budget, Net: o.Net, NodeCfg: o.NodeCfg,
		Faults: b.Faults, Resilience: b.Resilience, Cluster: b.Cluster,
	}
}

// plannerOpts is the one place harness settings reach the planner: the
// budget, the fault-free backend (planning is offline), and every
// planner-facing knob harness exposes. NoBatching masks the batching
// technique.
func (o Options) plannerOpts() planner.Options {
	p := o.Planner
	p.LocalBudget = o.Budget
	p.Net, p.NodeCfg, p.Cluster = o.Net, o.NodeCfg, o.clusterOpts(false)
	p.Compress, p.Offload, p.OffloadChunk, p.Plane = o.Compress, o.Offload, o.OffloadChunk, o.Plane
	p.WritebackQueueLines = o.wbqLines()
	p.Trace = o.Trace
	if o.NoBatching {
		if p.Techniques == (planner.TechniqueMask{}) {
			p.Techniques = planner.DefaultTechniques()
		}
		p.Techniques.NoBatching = true
	}
	return p
}

// load binds prog to a fresh runtime under cfg and loads w's data.
func load(w workload.Workload, prog *ir.Program, cfg rt.Config, nodeCfg farmem.NodeConfig) (*rt.Runtime, error) {
	r, err := rt.New(cfg, farmem.NewNode(nodeCfg))
	if err != nil {
		return nil, err
	}
	if err := r.Bind(prog); err != nil {
		return nil, err
	}
	if err := w.Init(r); err != nil {
		return nil, err
	}
	return r, nil
}

// Result is one run's outcome.
type Result struct {
	System System
	Time   sim.Duration
	// Failed marks systems that could not execute at this budget (AIFM
	// metadata exhaustion, Fig. 18) — plotted as absent in the paper.
	Failed bool
	// FailReason explains a failure.
	FailReason string
	// PlanResult carries the planner record for Mira runs.
	PlanResult *planner.Result
	// Net reports the transport's resilience counters for the timed run
	// (retries, timeouts, breaker trips, degraded-mode activity); summed
	// across node links in cluster mode.
	Net transport.Stats
	// Cluster carries the per-node counters when the run used a cluster
	// (nil otherwise), ordered by node ID.
	Cluster []cluster.NodeStats
	// Messages counts link-level transfers for the timed run (summed
	// across node links in cluster mode) — the metric vectored I/O
	// collapses.
	Messages int64
	// BytesMoved counts the bytes that crossed the interconnect.
	BytesMoved int64
	// BytesOnWire equals BytesMoved: what actually crossed, post-codec.
	// Named separately so reports read next to BytesEffective.
	BytesOnWire int64
	// BytesEffective adds back the bytes the wire codecs kept off the
	// link (transport.Stats.WireSaved): the pre-compression data volume.
	// Equal to BytesOnWire when compression is off.
	BytesEffective int64
	// Prefetch aggregates the run's prefetch efficacy counters across both
	// planes (cache sections + swap pool).
	Prefetch prefetch.Efficacy
	// DemandMisses counts the demand misses the run still paid (section
	// misses + swap major faults) — the denominator of prefetch coverage.
	DemandMisses int64
}

// withDefaults fills in the far node: cluster.New reads its capacity into
// the per-node stats before farmem.NewNode would default it. (rt.New and
// the planner default a zero Net themselves.)
func (o Options) withDefaults() Options {
	if o.NodeCfg.Capacity == 0 {
		o.NodeCfg = farmem.DefaultNodeConfig()
	}
	return o
}

// Run executes w on sys.
func Run(sys System, w workload.Workload, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if opts.Plane != "" {
		if sys != Mira {
			return Result{}, fmt.Errorf("harness: -plane selects Mira's data plane; %s has only one", sys)
		}
		if opts.Prefetch != nil {
			return Result{}, fmt.Errorf("harness: -plane and -prefetch are mutually exclusive (zoo policies pick their own plane)")
		}
	}
	if opts.Prefetch != nil {
		switch sys {
		case Mira:
			return RunLinePolicy(w, opts, *opts.Prefetch)
		case MiraSwap, FastSwap, Leap:
			return RunPagePolicy(w, opts, *opts.Prefetch)
		default:
			return Result{}, fmt.Errorf("harness: -prefetch is not supported for %s", sys)
		}
	}
	switch sys {
	case Native:
		return runNative(w, opts)
	case Mira, MiraSwap:
		return runMira(sys, w, opts)
	case FastSwap, Leap:
		return runSwapBaseline(sys, w, opts)
	case AIFM:
		return runAIFM(w, opts)
	default:
		return Result{}, fmt.Errorf("harness: unknown system %q", sys)
	}
}

// runRT executes prog over an already-bound rt runtime and verifies. For
// Mira this must be the planner's transformed program — running the
// workload's original would silently drop the compiled-in prefetch and
// eviction instrumentation.
func runRT(sys System, w workload.Workload, prog *ir.Program, r *rt.Runtime, opts Options) (Result, error) {
	t, err := execute(sys, w, prog, r, opts)
	if err != nil {
		return Result{}, err
	}
	ns := r.NetStats()
	moved := r.Link().BytesMoved()
	return Result{
		System:         sys,
		Time:           t,
		Net:            ns,
		Cluster:        r.ClusterStats(),
		Messages:       r.Link().Messages(),
		BytesMoved:     moved,
		BytesOnWire:    moved,
		BytesEffective: moved + ns.WireSaved,
		Prefetch:       r.PrefetchStats(),
		DemandMisses:   r.MissCount(),
	}, nil
}

// backendRun is what the timed run needs of a system's backend beyond
// exec.Backend: tracing, a final flush and the dump verification reads.
type backendRun interface {
	exec.Backend
	workload.ObjectDumper
	SetTrace(*trace.Tracer)
	FlushAll(*sim.Clock) error
}

// execute is the timed run every system shares: trace attached, prog run
// to completion over be, dirty state flushed, output verified.
func execute(sys System, w workload.Workload, prog *ir.Program, be backendRun, opts Options) (sim.Duration, error) {
	be.SetTrace(opts.Trace)
	ex, err := exec.New(prog, be, exec.Options{Params: w.Params()})
	if err != nil {
		return 0, err
	}
	clk := sim.NewClock(0)
	if _, err := ex.Run(clk); err != nil {
		return 0, err
	}
	if err := be.FlushAll(clk); err != nil {
		return 0, err
	}
	if err := verify(w, be, opts); err != nil {
		return 0, fmt.Errorf("harness: %s: %w", sys, err)
	}
	return clk.Now().Sub(0), nil
}

func verify(w workload.Workload, d workload.ObjectDumper, opts Options) error {
	if !opts.Verify {
		return nil
	}
	v, ok := w.(workload.Verifier)
	if !ok {
		return nil
	}
	return v.Verify(d)
}

// runNative executes with every object in local memory: the figures'
// normalization denominator ("native execution on full local memory").
func runNative(w workload.Workload, opts Options) (Result, error) {
	prog := w.Program()
	placements := map[string]rt.Placement{}
	for _, o := range prog.Objects {
		placements[o.Name] = rt.Placement{Kind: rt.PlaceLocal}
	}
	var full int64
	for _, o := range prog.Objects {
		full += o.SizeBytes()
	}
	r, err := load(w, prog, rt.Config{LocalBudget: full + (1 << 20), Placements: placements, Net: opts.Net}, opts.NodeCfg)
	if err != nil {
		return Result{}, err
	}
	return runRT(Native, w, prog, r, opts)
}

// runMira plans (or, for MiraSwap, stops at iteration 0) and reports the
// accepted configuration's time.
func runMira(sys System, w workload.Workload, opts Options) (Result, error) {
	popts := opts.plannerOpts()
	popts.DisableSeparation = popts.DisableSeparation || sys == MiraSwap
	res, err := planner.Plan(w, popts)
	if err != nil {
		return Result{}, err
	}
	// Re-run the accepted configuration for verification (the planner's
	// timing runs don't verify), to measure it under the fault schedule
	// (planning itself is always fault-free — an offline activity), or to
	// trace it (the planner's internal runs are not instrumented).
	if opts.Verify || opts.faultsEnabled() || opts.Trace != nil {
		r, err := load(w, res.Program, opts.backend(res.Config), opts.NodeCfg)
		if err != nil {
			return Result{}, err
		}
		rres, err := runRT(sys, w, res.Program, r, opts)
		if err != nil {
			return Result{}, err
		}
		rres.PlanResult = res
		if !opts.faultsEnabled() {
			rres.Time = res.FinalTime
		}
		return rres, nil
	}
	return Result{System: sys, Time: res.FinalTime, PlanResult: res}, nil
}

func runSwapBaseline(sys System, w workload.Workload, opts Options) (Result, error) {
	so := opts.swapOptions()
	var r *rt.Runtime
	var err error
	if sys == FastSwap {
		r, err = fastswap.New(w, so)
	} else {
		r, err = leap.New(w, leap.Options{
			LocalBudget: so.LocalBudget, Net: so.Net, NodeCfg: so.NodeCfg,
			Faults: so.Faults, Resilience: so.Resilience, Cluster: so.Cluster,
			NoBatching: opts.NoBatching,
		})
	}
	if err != nil {
		return Result{}, err
	}
	return runRT(sys, w, w.Program(), r, opts)
}

func runAIFM(w workload.Workload, opts Options) (Result, error) {
	if opts.Nodes > 0 {
		return Result{}, fmt.Errorf("harness: aifm models a single far node; -nodes is not supported")
	}
	aopts := opts.AIFM
	aopts.LocalBudget = opts.Budget
	aopts.Net = opts.Net
	aopts.NodeCfg = opts.NodeCfg
	aopts.Faults = opts.Faults
	aopts.Resilience = opts.Resilience
	r, err := aifm.New(w, aopts)
	if err != nil {
		// AIFM's metadata-exhaustion failure is a *result* the paper
		// reports, not a harness error.
		return Result{System: AIFM, Failed: true, FailReason: err.Error()}, nil
	}
	t, err := execute(AIFM, w, w.Program(), r, opts)
	if err != nil {
		return Result{}, err
	}
	return Result{System: AIFM, Time: t, Net: r.NetStats()}, nil
}
