package harness

import (
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/seqscan"
	"mira/internal/faults"
	"mira/internal/prefetch"
	"mira/internal/rt"
	"mira/internal/transport"
)

// TestBackendRouting is the table for backend, the one function that routes
// a run's fault schedule, resilience policy and cluster topology: every
// system that runs on rt, single-node and on a 3-node pool with faults on
// node 1. Each row first checks the routed configuration the system's path
// hands to its runtime, then runs the system and checks where the fault
// injector actually sat.
func TestBackendRouting(t *testing.T) {
	fc := faults.Config{Seed: 5, ErrorRate: 0.001}
	pol := transport.DefaultPolicy()
	pol.MaxAttempts = 9 // distinctive, so the copy is recognisable
	w := arraysum.New(arraysum.Config{N: 1 << 12, Seed: 1})

	// Mira-family paths route the planner's accepted configuration, whose
	// Cluster is the fault-free planning pool; the page-swap paths route
	// an empty configuration into their baseline options.
	planned := func(o Options) rt.Config { return o.backend(rt.Config{Cluster: o.clusterOpts(false)}) }
	swapped := func(o Options) rt.Config {
		so := o.swapOptions()
		return rt.Config{Faults: so.Faults, Resilience: so.Resilience, Cluster: so.Cluster}
	}
	systems := []struct {
		name   string
		sys    System
		spec   *prefetch.Spec
		routed func(Options) rt.Config
	}{
		{"mira", Mira, nil, planned},
		{"mira-swap", MiraSwap, nil, planned},
		{"fastswap", FastSwap, nil, swapped},
		{"leap", Leap, nil, swapped},
		{"page-policy", FastSwap, &prefetch.Spec{Policy: "history"}, swapped},
		{"line-policy", Mira, &prefetch.Spec{Policy: prefetch.Compiled}, planned},
	}
	for _, s := range systems {
		for _, nodes := range []int{0, 3} {
			opts := Options{
				Budget: w.FullMemoryBytes() / 4, Verify: true,
				Faults: &fc, Resilience: &pol, Prefetch: s.spec,
			}
			if nodes > 0 {
				opts.Nodes, opts.Replicas, opts.FaultNode, opts.StripeBytes = nodes, 2, 1, 4096
			}
			cfg := s.routed(opts.withDefaults())
			if nodes == 0 {
				if cfg.Faults != &fc || cfg.Resilience != &pol || cfg.Cluster != nil {
					t.Errorf("%s single-node: faults %v, resilience %v, cluster %v", s.name, cfg.Faults, cfg.Resilience, cfg.Cluster)
				}
			} else {
				if cfg.Faults != nil || cfg.Cluster == nil {
					t.Fatalf("%s cluster: top-level faults %v, cluster %v", s.name, cfg.Faults, cfg.Cluster)
				}
				for i, f := range cfg.Cluster.Faults {
					if (f != nil) != (i == 1) {
						t.Errorf("%s cluster: node %d fault domain %v, want only node 1's", s.name, i, f)
					}
				}
				if cfg.Cluster.Policy == nil || *cfg.Cluster.Policy != pol {
					t.Errorf("%s cluster: Resilience not copied into Cluster.Policy (%v)", s.name, cfg.Cluster.Policy)
				}
			}

			res, err := Run(s.sys, w, opts)
			if err != nil {
				t.Fatalf("%s nodes=%d: %v", s.name, nodes, err)
			}
			if len(res.Cluster) != nodes {
				t.Fatalf("%s nodes=%d: %d node reports", s.name, nodes, len(res.Cluster))
			}
			for _, ns := range res.Cluster {
				if injected := ns.Faults.Ops > 0; injected != (ns.Node == 1) {
					t.Errorf("%s cluster: node %d injector saw %d ops", s.name, ns.Node, ns.Faults.Ops)
				}
			}
		}
	}
}

// TestLinePolicyHonoursCompress: a line-plane policy run plans with the same
// knobs as a plain Mira run, so -compress on really compresses the wire.
func TestLinePolicyHonoursCompress(t *testing.T) {
	w := seqscan.New(seqscan.Config{N: 1 << 12, Seed: 1})
	wire := map[string]int64{}
	for _, mode := range []string{"off", "on"} {
		opts := Options{Budget: w.FullMemoryBytes() / 4, Verify: true, Compress: mode}
		res, err := RunLinePolicy(w, opts, prefetch.Spec{Policy: prefetch.Compiled})
		if err != nil {
			t.Fatalf("compress %s: %v", mode, err)
		}
		wire[mode] = res.BytesOnWire
	}
	if wire["on"] >= wire["off"] {
		t.Fatalf("compress on moved %d wire bytes, off %d: the line-policy run dropped -compress", wire["on"], wire["off"])
	}
}
