// Package leap models Leap [Al Maruf & Chowdhury, ATC'20]: an online
// prefetcher for swap-based far memory that detects the process's
// *majority* access trend from the recent page-fault history and prefetches
// along it. It captures one global stride well but — as the paper's Fig. 15
// discussion notes — cannot track the interleaved per-object patterns Mira
// separates, and its trend detection adds fault-path latency relative to
// FastSwap's leaner datapath.
package leap

import (
	"mira/internal/baselines/fastswap"
	"mira/internal/cluster"
	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/rt"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/transport"
	"mira/internal/workload"
)

// Options tunes the baseline.
type Options struct {
	// LocalBudget is the page pool size in bytes.
	LocalBudget int64
	// Window is the fault-history window for majority detection
	// (default 32).
	Window int
	// Depth is the prefetch depth along a detected trend (default 8).
	Depth int64
	// Net overrides the interconnect model.
	Net netmodel.Config
	// NodeCfg overrides the far node.
	NodeCfg farmem.NodeConfig
	// Faults wires the deterministic fault injector into the transport.
	Faults *faults.Config
	// Resilience overrides the transport's retry/deadline/breaker policy.
	Resilience *transport.Policy
	// Cluster, when non-nil, backs the swap heap with a sharded far-node
	// pool instead of a single node (per-node faults ride in
	// Cluster.Faults; Options.Faults must then be nil).
	Cluster *cluster.Options
	// NoBatching disables the doorbell-batched prefetch gather (one read
	// per prefetched page, the pre-vectored-I/O datapath).
	NoBatching bool
}

// Prefetcher is the zoo's prefetch.Leap majority-trend policy adapted to the
// swap plane (kept as a named type here for the baseline's public API; the
// algorithm itself now lives in internal/prefetch so both planes can race
// it).
type Prefetcher struct{ p *prefetch.Leap }

// NewPrefetcher builds the trend detector.
func NewPrefetcher(window int, depth int64) *Prefetcher {
	return &Prefetcher{p: prefetch.NewLeap(window, depth)}
}

// OnFault records the fault and prefetches along the majority trend.
func (p *Prefetcher) OnFault(page int64) []int64 { return p.p.OnMiss(page) }

// PerFaultOverhead is the trend-detection cost on every fault.
func (p *Prefetcher) PerFaultOverhead() sim.Duration { return p.p.PerMissOverhead() }

// New builds a Leap runtime for w: everything in the swap section with the
// majority-trend prefetcher.
func New(w workload.Workload, opts Options) (*rt.Runtime, error) {
	if opts.Window == 0 {
		opts.Window = 32
	}
	if opts.Depth == 0 {
		opts.Depth = 8
	}
	return fastswap.Datapath(w, fastswap.Options{
		LocalBudget: opts.LocalBudget, Net: opts.Net, NodeCfg: opts.NodeCfg,
		Faults: opts.Faults, Resilience: opts.Resilience, Cluster: opts.Cluster,
	}, swap.Config{
		MajorFaultOverhead: 4500 * sim.Nanosecond,
		BatchPrefetch:      !opts.NoBatching,
	}, NewPrefetcher(opts.Window, opts.Depth))
}
