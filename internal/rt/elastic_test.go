package rt

import (
	"bytes"
	"testing"

	"mira/internal/cache"
	"mira/internal/prefetch"
)

// Shrinking must flush dirty lines first and regrowing must refetch them:
// no data loss across a full lend/reclaim cycle, only a cold cache.
func TestElasticShrinkRegrowPreservesData(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.WritebackQueueLines = 16
	})
	base := r.SectionLiveBytes()
	if base != 16<<10 {
		t.Fatalf("live bytes = %d, want %d", base, 16<<10)
	}

	// Dirty a few elements, leave them resident (no flush).
	writes := map[int64][]byte{
		0: {1, 2, 3, 4, 5, 6, 7, 8},
		7: {9, 9, 9, 9, 8, 8, 8, 8},
	}
	for e, w := range writes {
		if err := r.Access(clk, "items", e, fld(0, 8), w, true, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := r.SectionLiveBytes(); got != base/4 {
		t.Fatalf("shrunk live bytes = %d, want %d", got, base/4)
	}
	if r.SectionScale() != 0.25 {
		t.Fatalf("scale = %g", r.SectionScale())
	}
	// The dirty lines must already sit in far memory: DumpObject bypasses
	// the cache entirely.
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	for e, w := range writes {
		if !bytes.Equal(dump[e*64:e*64+8], w) {
			t.Fatalf("elem %d lost on shrink: %x", e, dump[e*64:e*64+8])
		}
	}

	// Regrow: the cache is cold, so the next access misses and refetches.
	if err := r.SetSectionScale(clk, 1); err != nil {
		t.Fatal(err)
	}
	if got := r.SectionLiveBytes(); got != base {
		t.Fatalf("regrown live bytes = %d, want %d", got, base)
	}
	missesBefore := r.SectionStats(0).Misses
	g := make([]byte, 8)
	if err := r.Access(clk, "items", 0, fld(0, 8), g, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, writes[0]) {
		t.Fatalf("post-regrow read %x, want %x", g, writes[0])
	}
	if r.SectionStats(0).Misses != missesBefore+1 {
		t.Fatal("regrown cache was not cold")
	}
}

// A shrunken section must keep working (capacity pressure, not failure),
// and re-scaling to the current value must be a no-op.
func TestElasticShrunkSectionStillServes(t *testing.T) {
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].Cache = cache.Config{Name: "items", Structure: cache.Direct, LineBytes: 128, SizeBytes: 1 << 10}
		c.WritebackQueueLines = 16
	})
	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < 32; e++ {
		w := []byte{byte(e), 0xaa}
		if err := r.Access(clk, "items", e, fld(0, 2), w, true, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < 32; e++ {
		if dump[e*64] != byte(e) || dump[e*64+1] != 0xaa {
			t.Fatalf("elem %d wrong after shrunken-section run: %x", e, dump[e*64:e*64+2])
		}
	}
	now := clk.Now()
	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != now {
		t.Fatal("re-scaling to the current scale charged time")
	}
	if err := r.SetSectionScale(clk, 0); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

// TestSetSectionScaleRecapsPrefetchWindow is the regression test for the
// stale prefetch-window clamp: after an elastic shrink the programmed
// policy's in-flight window must re-clamp to half the live capacity, and a
// regrow must restore the configured window.
func TestSetSectionScaleRecapsPrefetchWindow(t *testing.T) {
	r, clk := mkRuntime(t, nil) // items section: 16 KiB / 128 B = 128 lines
	pol := prefetch.NewProgrammed([]int64{0, 1, 2, 3}, 60)
	if err := r.InstallSectionPolicy(0, pol); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 60 {
		t.Fatalf("window = %d before resize, want 60", pol.Window())
	}
	// Shrink to 32 lines: a 60-line window would thrash the cache; the
	// resize must re-clamp it to half the live capacity.
	if err := r.SetSectionScale(clk, 0.25); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 16 {
		t.Fatalf("window = %d after shrink to 32 lines, want 16", pol.Window())
	}
	// Regrow: the configured window fits again and must come back whole.
	if err := r.SetSectionScale(clk, 1.0); err != nil {
		t.Fatal(err)
	}
	if pol.Window() != 60 {
		t.Fatalf("window = %d after regrow, want 60", pol.Window())
	}
}
