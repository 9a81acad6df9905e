package rt

import (
	"bytes"
	"testing"

	"mira/internal/cache"
	"mira/internal/farmem"
	"mira/internal/ir"
	"mira/internal/sim"
)

// planeRig is one far object served by one data plane — a cache section
// (line plane) or the swap pool (page plane) — driven through the
// runtime's own entry points: Access, Prefetch, FlushObject, FlushAll,
// Fence and DumpObject.
type planeRig struct {
	r    *Runtime
	obj  string
	size int64 // object bytes; not a multiple of unit, so a tail unit exists
	unit int64 // the plane's transfer unit: line or page bytes
	// resident and capacity count the plane's locally cached units.
	resident func() int
	capacity int
	// stats reports the plane's counters in one comparable shape.
	stats func() planeStats
}

type planeStats struct {
	Accesses, Hits, Misses, Prefetches int64
}

// planeElem is the element size of every rig object: one 8-byte field.
const planeElem = 8

func newPlaneRig(t *testing.T, line bool) *planeRig {
	t.Helper()
	b := ir.NewBuilder("planes")
	cfg := Config{LocalBudget: 1 << 20}
	var name string
	if line {
		// 1000 bytes over 64-byte lines: a 40-byte tail line.
		name = "grid"
		b.Object(name, planeElem, 125, ir.F("v", 0, planeElem))
		cfg.Sections = []SectionSpec{{
			Cache: cache.Config{Name: name, Structure: cache.SetAssoc, Ways: 4, LineBytes: 64, SizeBytes: 2 << 10},
		}}
		cfg.Placements = map[string]Placement{name: {Kind: PlaceSection, Section: 0}}
	} else {
		// 4936 bytes over 4 KiB pages: an 840-byte tail page.
		name = "vec"
		b.Object(name, planeElem, 617, ir.F("v", 0, planeElem))
		cfg.SwapPool = 16 << 10
		cfg.Placements = map[string]Placement{name: {Kind: PlaceSwap}}
	}
	b.Func("main")
	r, err := New(cfg, farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bind(b.MustProgram()); err != nil {
		t.Fatal(err)
	}
	g := &planeRig{r: r, obj: name, size: r.objs[name].decl.SizeBytes()}
	if line {
		s := r.secs[0]
		g.unit = int64(s.spec.Cache.LineBytes)
		g.capacity = s.sec.Config().Lines()
		g.resident = func() int {
			n := 0
			s.sec.ForEachResident(func(*cache.Line) { n++ })
			return n
		}
		g.stats = func() planeStats {
			st := s.sec.Stats()
			return planeStats{Accesses: st.Hits + st.Misses, Hits: st.Hits, Misses: st.Misses, Prefetches: s.pf.Issued}
		}
	} else {
		g.unit = 4096
		g.capacity = r.swapC.Capacity()
		g.resident = r.swapC.Resident
		g.stats = func() planeStats {
			st := r.swapC.Stats()
			return planeStats{Accesses: st.Accesses, Hits: st.Accesses - st.MajorFaults, Misses: st.MajorFaults, Prefetches: st.Prefetches}
		}
	}
	return g
}

// span clips an element-aligned window of up to want bytes at off to the
// object.
func (g *planeRig) span(off, want int64) (int64, []byte) {
	off = min(off, g.size-planeElem)
	off -= off % planeElem
	if want > g.size-off {
		want = g.size - off
	}
	return off, make([]byte, want)
}

// access reads or writes buf at byte offset off, one element at a time.
func (g *planeRig) access(t *testing.T, clk *sim.Clock, off int64, buf []byte, write bool) {
	t.Helper()
	f := ir.Field{Offset: 0, Bytes: planeElem}
	for i := int64(0); i < int64(len(buf)); i += planeElem {
		if err := g.r.Access(clk, g.obj, (off+i)/planeElem, f, buf[i:i+planeElem], write, AccessOpts{}); err != nil {
			t.Fatalf("%s at %d (write=%v): %v", g.obj, off+i, write, err)
		}
	}
}

// far returns the object's far-memory bytes [off, off+n), bypassing the
// plane's cache.
func (g *planeRig) far(t *testing.T, off int64, n int) []byte {
	t.Helper()
	img, err := g.r.DumpObject(g.obj)
	if err != nil {
		t.Fatal(err)
	}
	return img[off : off+int64(n)]
}

// planePattern is the deterministic byte the checks expect at an offset.
func planePattern(off int64, buf []byte) []byte {
	for i := range buf {
		buf[i] = byte((off+int64(i))*131 + 17)
	}
	return buf
}

// runPlaneChecks drives the behaviors every data plane must keep through
// fresh rigs, one per subtest so no state leaks between them.
func runPlaneChecks(t *testing.T, name string, line bool) {
	t.Run(name, func(t *testing.T) {
		mk := func() *planeRig { return newPlaneRig(t, line) }
		t.Run("ReadYourWrites", func(t *testing.T) {
			g, clk := mk(), sim.NewClock(0)
			// At the head, across a unit boundary, and at the tail.
			for _, off := range []int64{0, g.unit/2 + 1, g.size - g.unit/3 - 1} {
				off, buf := g.span(off, g.unit*2+g.unit/2)
				g.access(t, clk, off, planePattern(off, buf), true)
				got := make([]byte, len(buf))
				g.access(t, clk, off, got, false)
				if !bytes.Equal(got, buf) {
					t.Fatalf("read-your-writes mismatch at offset %d", off)
				}
			}
		})
		t.Run("FlushPersists", func(t *testing.T) {
			g, clk := mk(), sim.NewClock(0)
			off, buf := g.span(g.unit/2, g.unit*3)
			g.access(t, clk, off, planePattern(off, buf), true)
			if err := g.r.FlushAll(clk); err != nil {
				t.Fatal(err)
			}
			if n := g.resident(); n != 0 {
				t.Fatalf("flush left %d units resident", n)
			}
			if !bytes.Equal(g.far(t, off, len(buf)), buf) {
				t.Fatal("flush did not persist dirty bytes to far memory")
			}
		})
		t.Run("EvictRangePersists", func(t *testing.T) {
			g, clk := mk(), sim.NewClock(0)
			off, buf := g.span(0, g.unit*2)
			g.access(t, clk, off, planePattern(off, buf), true)
			if err := g.r.FlushObject(clk, g.obj); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.far(t, off, len(buf)), buf) {
				t.Fatal("FlushObject did not write the dirty range back to far memory")
			}
			got := make([]byte, len(buf))
			g.access(t, clk, off, got, false)
			if !bytes.Equal(got, buf) {
				t.Fatal("refetch after FlushObject lost data")
			}
		})
		t.Run("PrefetchAdvisory", func(t *testing.T) {
			g, clk := mk(), sim.NewClock(0)
			off, buf := g.span(0, g.unit*2)
			g.access(t, clk, off, planePattern(off, buf), true)
			if err := g.r.FlushAll(clk); err != nil {
				t.Fatal(err)
			}
			// In-range, duplicate and past-the-end proposals: all advisory.
			f := ir.Field{Offset: 0, Bytes: planeElem}
			count := g.size / planeElem
			if err := g.r.Prefetch(clk, g.obj, 0, f); err != nil {
				t.Fatalf("prefetch: %v", err)
			}
			batch := []BatchEntry{
				{Obj: g.obj, Elem: g.unit / planeElem, Field: f},
				{Obj: g.obj, Elem: 0, Field: f},
				{Obj: g.obj, Elem: count + 10*g.unit/planeElem, Field: f},
			}
			if err := g.r.PrefetchBatch(clk, batch); err != nil {
				t.Fatalf("prefetch batch: %v", err)
			}
			got := make([]byte, len(buf))
			g.access(t, clk, off, got, false)
			if !bytes.Equal(got, buf) {
				t.Fatal("prefetched bytes differ from the far image")
			}
			if st := g.stats(); st.Prefetches == 0 {
				t.Fatalf("prefetches issued nothing: %+v", st)
			}
		})
		if line {
			// Fence settles the sections' write-back queues and in-flight
			// prefetches; the paged plane has no fence of its own.
			t.Run("FenceSettles", func(t *testing.T) {
				g, clk := mk(), sim.NewClock(0)
				off, buf := g.span(0, g.unit)
				g.access(t, clk, off, planePattern(off, buf), true)
				if err := g.r.EvictHint(clk, g.obj, 0); err != nil {
					t.Fatal(err)
				}
				if err := g.r.Prefetch(clk, g.obj, g.unit/planeElem, ir.Field{Offset: 0, Bytes: planeElem}); err != nil {
					t.Fatal(err)
				}
				g.r.Fence(clk)
				settled := clk.Now()
				g.r.Fence(clk)
				if clk.Now() != settled {
					t.Fatalf("second fence moved the clock: %v -> %v", settled, clk.Now())
				}
			})
		}
		t.Run("TailUnit", func(t *testing.T) {
			g, clk := mk(), sim.NewClock(0)
			tail := g.size % g.unit
			if tail == 0 {
				t.Fatal("rig object is unit-aligned; the tail unit is not exercised")
			}
			off, buf := g.span(g.size-tail, tail)
			g.access(t, clk, off, planePattern(off, buf), true)
			if err := g.r.FlushAll(clk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.far(t, off, len(buf)), buf) {
				t.Fatal("tail unit did not persist")
			}
		})
		t.Run("StatsCount", func(t *testing.T) {
			g, clk := mk(), sim.NewClock(0)
			off, buf := g.span(0, g.unit*2)
			before := g.stats()
			g.access(t, clk, off, buf, false)
			mid := g.stats()
			if mid.Misses <= before.Misses || mid.Accesses <= before.Accesses {
				t.Fatalf("cold read did not count a miss and an access: %+v -> %+v", before, mid)
			}
			g.access(t, clk, off, buf, false)
			after := g.stats()
			if after.Misses != mid.Misses {
				t.Fatalf("warm re-read missed: %+v -> %+v", mid, after)
			}
			if after.Accesses <= mid.Accesses || after.Hits <= mid.Hits {
				t.Fatalf("warm re-read not counted as a hit: %+v -> %+v", mid, after)
			}
			if n := g.resident(); n <= 0 || n > g.capacity {
				t.Fatalf("resident %d outside (0, capacity %d]", n, g.capacity)
			}
		})
		t.Run("Determinism", func(t *testing.T) {
			run := func() (sim.Time, planeStats, []byte) {
				g, clk := mk(), sim.NewClock(0)
				for i := int64(0); i < 4; i++ {
					off, buf := g.span(i*g.unit/2, g.unit)
					g.access(t, clk, off, planePattern(off, buf), true)
				}
				f := ir.Field{Offset: 0, Bytes: planeElem}
				if err := g.r.PrefetchBatch(clk, []BatchEntry{{Obj: g.obj, Field: f}, {Obj: g.obj, Elem: g.unit / planeElem, Field: f}}); err != nil {
					t.Fatal(err)
				}
				off, got := g.span(0, g.unit*2)
				g.access(t, clk, off, got, false)
				if err := g.r.FlushAll(clk); err != nil {
					t.Fatal(err)
				}
				return clk.Now(), g.stats(), g.far(t, 0, int(g.size))
			}
			t1, s1, b1 := run()
			t2, s2, b2 := run()
			if t1 != t2 || s1 != s2 || !bytes.Equal(b1, b2) {
				t.Fatalf("identical scripts diverged: %v %+v vs %v %+v (far image equal: %v)",
					t1, s1, t2, s2, bytes.Equal(b1, b2))
			}
		})
	})
}

// TestLinePlaneConformance checks the line plane: one object in a cache
// section, served through the runtime's access, prefetch and flush paths.
func TestLinePlaneConformance(t *testing.T) { runPlaneChecks(t, "rt.line", true) }

// TestPagePlaneConformanceViaRuntime checks the page plane as the runtime
// serves it: one swap-placed object, including compiled prefetches, which
// become page advisories.
func TestPagePlaneConformanceViaRuntime(t *testing.T) { runPlaneChecks(t, "rt.page", false) }
