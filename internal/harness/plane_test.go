package harness

import (
	"bytes"
	"fmt"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/dataframe"
	"mira/internal/apps/distagg"
	"mira/internal/apps/gpt2"
	"mira/internal/apps/graphtraverse"
	"mira/internal/apps/mcf"
	"mira/internal/apps/seqscan"
	"mira/internal/trace"
	"mira/internal/workload"
)

// gridWorkload builds app at the size mira-run uses when no size flag is
// given, except mcf and dataframe: their line-plane plans take tens of
// seconds at full size, so the grid runs them shrunk.
func gridWorkload(t *testing.T, app string) workload.Workload {
	t.Helper()
	switch app {
	case "graph":
		return graphtraverse.New(graphtraverse.Config{})
	case "mcf":
		return mcf.New(mcf.Config{Arcs: 2048, Nodes: 512, Iterations: 6, WalkLen: 16, Seed: 429})
	case "dataframe":
		return dataframe.New(dataframe.Config{Rows: 1 << 12, Seed: 2014})
	case "gpt2":
		return gpt2.New(gpt2.Config{})
	case "seqscan":
		return seqscan.New(seqscan.Config{})
	case "arraysum":
		return arraysum.New(arraysum.Config{})
	case "distagg":
		return distagg.New(distagg.Config{})
	case "distfilter":
		return distagg.New(distagg.Config{Mode: "filter"})
	}
	t.Fatalf("unknown app %q", app)
	return nil
}

// budgetAt is mira-run's -mem arithmetic: a fraction of the full footprint.
func budgetAt(w workload.Workload, mem float64) int64 {
	return int64(float64(w.FullMemoryBytes()) * mem)
}

// TestPlaneComposesWithNodesAndOffload: every plane mode runs on a 4-node
// cluster — and, for the offload apps, with -offload auto on top — verifies
// against the native oracle, and replays byte-identically (trace, metrics
// and simulated time).
func TestPlaneComposesWithNodesAndOffload(t *testing.T) {
	grid := []struct {
		apps    []string
		offload string
	}{
		{[]string{"graph", "mcf", "dataframe", "gpt2", "seqscan"}, ""},
		{[]string{"distagg", "distfilter", "arraysum"}, "auto"},
	}
	for _, g := range grid {
		for _, app := range g.apps {
			for _, plane := range []string{"page", "line", "hybrid"} {
				t.Run(fmt.Sprintf("%s/%s/offload=%s", app, plane, g.offload), func(t *testing.T) {
					run := func() (Result, []byte) {
						w := gridWorkload(t, app)
						tr := trace.New()
						res, err := Run(Mira, w, Options{
							Budget: budgetAt(w, 0.25), Verify: true, Trace: tr,
							Nodes: 4, Replicas: 1, Plane: plane, Offload: g.offload,
						})
						if err != nil {
							t.Fatal(err)
						}
						if res.Failed {
							t.Fatalf("failed to execute: %s", res.FailReason)
						}
						var buf bytes.Buffer
						if err := tr.WriteTrace(&buf); err != nil {
							t.Fatal(err)
						}
						if err := tr.Registry().WriteJSON(&buf); err != nil {
							t.Fatal(err)
						}
						return res, buf.Bytes()
					}
					r1, b1 := run()
					r2, b2 := run()
					if r1.Time != r2.Time || !bytes.Equal(b1, b2) {
						t.Fatalf("identical runs diverged: %v vs %v (trace+metrics equal: %v)",
							r1.Time, r2.Time, bytes.Equal(b1, b2))
					}
				})
			}
		}
	}
}

// TestGPT2VerifiesAtDefaultSize is the end-to-end regression for the
// tensor intrinsics and the write-back queue: at mira-run's default size,
// BulkRead/BulkWrite hit dirty lines parked in the queue, and re-reading
// them stale from far memory makes the output diverge from the native
// oracle.
func TestGPT2VerifiesAtDefaultSize(t *testing.T) {
	for _, c := range []struct {
		plane string
		mem   float64
	}{{"", 0.25}, {"line", 0.5}} {
		t.Run(fmt.Sprintf("plane=%s/mem=%v", c.plane, c.mem), func(t *testing.T) {
			w := gpt2.New(gpt2.Config{})
			res, err := Run(Mira, w, Options{Budget: budgetAt(w, c.mem), Verify: true, Plane: c.plane})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("failed to execute: %s", res.FailReason)
			}
		})
	}
}
