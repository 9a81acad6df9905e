package planner

import (
	"reflect"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/codegen"
	"mira/internal/sim"
	"mira/internal/trace"
)

// raceFixture returns a session whose incumbent is arraysum's all-swap
// baseline, a candidate that re-runs exactly that configuration under a
// fresh plan, and the baseline's measured time.
func raceFixture(t *testing.T) (*session, *trace.Tracer, candidate, sim.Duration) {
	t.Helper()
	w := arraysum.New(arraysum.Config{N: 1 << 12, Seed: 1})
	opts := withDefaults(Options{LocalBudget: w.FullMemoryBytes() / 4})
	prog := w.Program()
	cfg, err := swapOnlyConfig(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	t0, _, err := runOnce(w, prog, cfg, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	res := &Result{Program: prog, Config: cfg, Plan: &codegen.Plan{}, BaselineTime: t0, FinalTime: t0}
	s := &session{w: w, opts: opts, res: res, ptrc: tr.Buffer("planner"), cursor: sim.Time(0).Add(t0)}
	c := candidate{
		prog: prog, cfg: cfg, plan: &codegen.Plan{},
		span: "probe", args: []trace.Arg{trace.I("n", 1)},
		rejected: "probe.rejected", rejArgs: []trace.Arg{trace.I("n", 1)}, rejErr: true,
	}
	return s, tr, c, t0
}

// onlyEvent returns the single event the tracer recorded.
func onlyEvent(t *testing.T, tr *trace.Tracer) trace.Event {
	t.Helper()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d planner events, want 1: %+v", len(evs), evs)
	}
	return evs[0]
}

func argOf(e trace.Event, key string) (trace.Arg, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			return a, true
		}
	}
	return trace.Arg{}, false
}

// TestRaceRollsBackTie pins the strict-win rule: a candidate that only ties
// the incumbent is measured and rolled back.
func TestRaceRollsBackTie(t *testing.T) {
	s, tr, c, t0 := raceFixture(t)
	incumbent := s.res.Plan
	got, _, accepted, err := s.race(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != t0 {
		t.Fatalf("re-running the incumbent measured %v, want the tie %v", got, t0)
	}
	if accepted || s.res.Plan != incumbent || s.res.FinalTime != t0 {
		t.Fatalf("tie accepted: accepted=%v final=%v", accepted, s.res.FinalTime)
	}
	e := onlyEvent(t, tr)
	if v, _ := argOf(e, "result"); e.Ph != trace.PhaseSpan || e.Name != "probe" || v.Str != "rolled-back" {
		t.Fatalf("want a rolled-back probe span, got %+v", e)
	}
	if s.cursor != sim.Time(0).Add(2*t0) {
		t.Fatalf("cursor %v did not advance by the measured run", s.cursor)
	}
}

// TestRaceAcceptsStrictWin: the same candidate beats an incumbent that is
// one nanosecond slower.
func TestRaceAcceptsStrictWin(t *testing.T) {
	s, _, c, t0 := raceFixture(t)
	s.res.FinalTime = t0 + 1
	if _, _, accepted, err := s.race(c); err != nil || !accepted {
		t.Fatalf("strict win not accepted (err %v)", err)
	}
	if s.res.FinalTime != t0 || s.res.Plan != c.plan {
		t.Fatalf("accepted candidate not installed: final %v", s.res.FinalTime)
	}
}

// TestRaceForcedAcceptsSlower: a forced candidate replaces a faster
// incumbent, and the span says so.
func TestRaceForcedAcceptsSlower(t *testing.T) {
	s, tr, c, t0 := raceFixture(t)
	s.res.FinalTime = t0 / 2
	c.force = true
	if _, _, accepted, err := s.race(c); err != nil || !accepted {
		t.Fatalf("forced candidate not accepted (err %v)", err)
	}
	if s.res.FinalTime != t0 || s.res.Plan != c.plan || s.res.Program != c.prog {
		t.Fatalf("forced candidate not installed: final %v", s.res.FinalTime)
	}
	if v, _ := argOf(onlyEvent(t, tr), "result"); v.Str != "accepted" {
		t.Fatalf("forced span verdict %q, want accepted", v.Str)
	}
}

// TestRaceRuntimeRejectionLeavesResult: a candidate the runtime refuses
// changes nothing in the result and leaves only its rejection instant.
func TestRaceRuntimeRejectionLeavesResult(t *testing.T) {
	s, tr, c, _ := raceFixture(t)
	c.force = true        // even a forced candidate must run to win
	c.cfg.LocalBudget = 0 // rt.New rejects a non-positive budget
	before, cursor := *s.res, s.cursor
	if _, col, accepted, err := s.race(c); err == nil || accepted || col != nil {
		t.Fatalf("rejected candidate: err %v, accepted %v, profile %v", err, accepted, col)
	}
	if !reflect.DeepEqual(before, *s.res) {
		t.Fatalf("rejected candidate changed the result")
	}
	if s.cursor != cursor {
		t.Fatalf("rejected candidate moved the cursor")
	}
	e := onlyEvent(t, tr)
	if e.Ph != trace.PhaseInstant || e.Name != "probe.rejected" || e.Ts != cursor {
		t.Fatalf("want only the probe.rejected instant at the cursor, got %+v", e)
	}
	if _, ok := argOf(e, "n"); !ok {
		t.Fatalf("rejection instant lost its args: %+v", e.Args)
	}
	if _, ok := argOf(e, "err"); !ok {
		t.Fatalf("rejection instant lacks the runtime error: %+v", e.Args)
	}
}
