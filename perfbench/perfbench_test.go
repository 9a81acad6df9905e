package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"mira/internal/apps/mcf"
)

// reducedSizes shrink every workload so the package test runs in seconds.
func reducedSizes() sizes {
	small := mcf.Config{Arcs: 256, Nodes: 64, Iterations: 2, WalkLen: 8}
	return sizes{
		planMCF:        small,
		planGraphs:     2,
		swapMCF:        small,
		distN:          1 << 12,
		serveDiv:       8,
		serveRequests:  40,
		serveMeanScale: 3,
	}
}

func runRep(t *testing.T, e *env, name string, seed uint64) *rep {
	t.Helper()
	r, err := workloads[name](e, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d failed operations", name, r.failed)
	}
	return r
}

// TestTracedRunIsTransparent runs every workload untraced, traced and in the
// allocation pass, and requires identical sim results, counts and
// far-memory dumps: the decorator, spans and profiles must not change the
// program they measure.
func TestTracedRunIsTransparent(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			e := &env{sz: reducedSizes(), replays: map[string]map[string][]byte{}}
			plain := runRep(t, e, name, 7)
			e.tr = newTracer()
			e.tr.profile = true
			traced := runRep(t, e, name, 7)
			e.tr.profile, e.tr.allocPass = false, true
			allocs := runRep(t, e, name, 7)
			if a, b := plain.signature(), traced.signature(); a != b {
				t.Fatalf("traced run differs:\n untraced: %s\n traced:   %s", a, b)
			}
			if a, b := plain.signature(), allocs.signature(); a != b {
				t.Fatalf("allocation pass differs:\n untraced: %s\n pass:     %s", a, b)
			}
			if a, b := traced.traced.String(), allocs.traced.String(); a != b {
				t.Fatalf("traced counts differ:\n %s\n %s", a, b)
			}
			if plain.simTime <= 0 || plain.attempted == 0 {
				t.Fatalf("empty result: %s", plain.signature())
			}
			if name != "serve-chaos" && traced.traced["exec.backend_calls"] == 0 {
				t.Fatal("the decorator saw no Backend calls")
			}
			if name == "offload-8node" && traced.base["offload.subs"] == 0 {
				t.Fatal("no scatter-gather sub-offloads under the decorator: offload fell back")
			}
			if name == "serve-chaos" && traced.traced["transport.ops"] == 0 {
				t.Fatal("no transport counters from the serving run's registry")
			}
		})
	}
}

// TestSeedRepeatsExactly requires two fresh processes' worth of state to
// reproduce one seed exactly, and another seed to change the inputs.
func TestSeedRepeatsExactly(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			fresh := func(seed uint64) *rep {
				return runRep(t, &env{sz: reducedSizes(), replays: map[string]map[string][]byte{}}, name, seed)
			}
			a, b := fresh(3), fresh(3)
			if a.signature() != b.signature() {
				t.Fatalf("seed 3 does not repeat:\n %s\n %s", a.signature(), b.signature())
			}
			if c := fresh(4); c.dumps == a.dumps {
				t.Fatal("seeds 3 and 4 produced identical outputs: the seed does not reach the inputs")
			}
		})
	}
}

// TestServeChaosTailSamples checks the full-size serving mix admits at
// least 1000 requests per tenant, so at least ten lie beyond each p99.
func TestServeChaosTailSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size serving run")
	}
	e := &env{sz: fullSizes(), replays: map[string]map[string][]byte{}}
	r := runRep(t, e, "serve-chaos", defaultSeed)
	for _, tenant := range []string{"sum", "scan", "stride"} {
		if n := r.base["serve.admitted{tenant="+tenant+"}"]; n < 1000 {
			t.Errorf("tenant %s admitted %d requests, want >= 1000", tenant, n)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json in step with the
// names and units the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	e := &env{sz: reducedSizes(), replays: map[string]map[string][]byte{}}
	res, err := measure(workloads["swap-mcf"], 1, 1e-9, true, e.sz)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		for i := 0; i < len(declared) && i < len(printed); i++ {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, res.endToEnd())
	check("per_layer", spec.PerLayer, res.layerMetrics())
	var out bytes.Buffer
	if code := report(&out, "swap-mcf", 1, res, res.endToEnd()); code != 0 || !res.correct() {
		t.Fatalf("report exit %d, correct %v", code, res.correct())
	}
}

func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profile already running")
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		x += math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	s := cpuShares{}
	if err := s.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range s.shares() {
		sum += v
	}
	if len(s) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	for fn, want := range map[string]string{
		"mira/internal/exec.(*Executor).block":        "exec",
		"mira/internal/cache.(*setAssoc).Lookup":      "cache",
		"runtime.mallocgc":                            "goruntime",
		"internal/runtime/maps.(*Map).getWithKey":     "goruntime",
		"mira/internal/netmodel.(*Bandwidth).Acquire": "transport",
		"sort.Slice": "other",
	} {
		if got := profLayer(fn); got != want {
			t.Errorf("profLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	var out bytes.Buffer
	stderrLog = &out
	defer func() { stderrLog = os.Stderr }()
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "plan-mcf", "--trace", "2"},
		{"--workload", "plan-mcf", "--seconds", "0"},
	} {
		if code := cli(args, &out); code == 0 {
			t.Errorf("cli(%v) exited 0", args)
		}
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
