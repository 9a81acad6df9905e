// Package fastswap models FastSwap [Amaro et al., EuroSys'20]: a
// kernel-swap-based far-memory system with an optimized fault datapath and
// Linux-style cluster readahead. Like all page-swap systems it is agnostic
// to program semantics (§2.1): every object lives in one 4 KB-paged region,
// prefetching follows faulting page adjacency only, and eviction is global
// approximate LRU.
package fastswap

import (
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
	// Readahead is the number of following pages pulled on each fault
	// (Linux swap cluster readahead). Default 2.
	Readahead int64
	// Net overrides the interconnect model.
	Net netmodel.Config
	// NodeCfg overrides the far node.
	NodeCfg farmem.NodeConfig
	// MajorFaultOverhead overrides the fault-path cost (zero: 4.5 µs).
	// The multithreaded driver scales it to model kernel-lock
	// contention (§6.2).
	MajorFaultOverhead sim.Duration
	// Faults wires the deterministic fault injector into the transport.
	Faults *faults.Config
	// Resilience overrides the transport's retry/deadline/breaker policy.
	Resilience *transport.Policy
	// Cluster, when non-nil, backs the swap heap with a sharded far-node
	// pool instead of a single node (per-node faults ride in
	// Cluster.Faults; Options.Faults must then be nil).
	Cluster *cluster.Options
}

// Readahead prefetches the pages following each fault — profitable for
// sequential access, wasted bandwidth otherwise. It is the zoo's
// prefetch.Readahead policy adapted to the swap plane (kept as a named type
// here for the baseline's public API).
type Readahead struct{ N int64 }

// OnFault returns the next N pages.
func (r Readahead) OnFault(page int64) []int64 {
	return prefetch.Readahead{N: r.N}.OnMiss(page)
}

// PerFaultOverhead is zero: FastSwap's datapath is the fast one the other
// baselines are measured against.
func (Readahead) PerFaultOverhead() sim.Duration {
	return prefetch.Readahead{}.PerMissOverhead()
}

// New builds a FastSwap runtime for w: everything in the swap section.
func New(w workload.Workload, opts Options) (*rt.Runtime, error) {
	if opts.Readahead == 0 {
		opts.Readahead = 2
	}
	if opts.MajorFaultOverhead == 0 {
		opts.MajorFaultOverhead = 4500 * sim.Nanosecond
	}
	return Datapath(w, opts, swap.Config{MajorFaultOverhead: opts.MajorFaultOverhead}, Readahead{N: opts.Readahead})
}

// Datapath builds the page-swap runtime the swap baselines share: every
// far object of w pages through one pool holding what the pinned local
// objects leave of opts.LocalBudget (rt.SwapOnly), over opts' interconnect,
// far node(s), fault schedule and resilience policy. sc sets the fault
// path (minor faults always cost 1 µs) and pf the prefetcher; opts'
// Readahead and MajorFaultOverhead are not consulted. Leap is this
// datapath with its trend prefetcher and batched prefetch gather.
func Datapath(w workload.Workload, opts Options, sc swap.Config, pf swap.Prefetcher) (*rt.Runtime, error) {
	prog := w.Program()
	cfg, err := rt.SwapOnly(prog, opts.LocalBudget)
	if err != nil {
		return nil, err
	}
	sc.MinorFaultOverhead = 1000 * sim.Nanosecond
	cfg.Net, cfg.SwapCfg = opts.Net, sc
	cfg.Faults, cfg.Resilience, cfg.Cluster = opts.Faults, opts.Resilience, opts.Cluster
	r, err := rt.New(cfg, farmem.NewNode(opts.NodeCfg))
	if err != nil {
		return nil, err
	}
	if err := r.Bind(prog); err != nil {
		return nil, err
	}
	r.SwapPrefetcher(pf)
	if err := w.Init(r); err != nil {
		return nil, err
	}
	return r, nil
}
