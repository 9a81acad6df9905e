package swap

import (
	"bytes"
	"fmt"
	"testing"

	"mira/internal/codec"
	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/transport"
)

// unalignedRig builds a node + transport + cache over a region of exactly
// length bytes (not necessarily page-aligned), keeping the node handle so
// tests can inspect the raw far image.
type unalignedRig struct {
	node *farmem.Node
	tr   *transport.T
	c    *Cache
	clk  *sim.Clock
}

func newUnalignedRig(t *testing.T, poolPages int, length int64, pf Prefetcher, batch bool) *unalignedRig {
	t.Helper()
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 1})
	tr := transport.New(node, netmodel.DefaultConfig())
	base, err := node.Alloc(uint64(length))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, length)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := node.Write(base, data); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(int64(poolPages) * PageBytes)
	cfg.BatchPrefetch = batch
	c, err := New(cfg, tr, base, length, pf)
	if err != nil {
		t.Fatal(err)
	}
	return &unalignedRig{node: node, tr: tr, c: c, clk: sim.NewClock(0)}
}

// TestUnalignedRegionLengths is the tail-page audit: regions whose length is
// not a page multiple must read, batch-prefetch, write back, and charge the
// wire using the short tail size, never a full-page size.
func TestUnalignedRegionLengths(t *testing.T) {
	lengths := []int64{
		PageBytes,          // aligned control
		PageBytes + 1,      // one-byte tail
		2*PageBytes - 1,    // tail one byte short of full
		3*PageBytes + 1234, // mid-size tail
		5000,               // sub-two-pages
	}
	for _, length := range lengths {
		t.Run(fmt.Sprintf("len%d", length), func(t *testing.T) {
			rig := newUnalignedRig(t, 64, length, seqPrefetch{n: 3}, true)
			c, clk := rig.c, rig.clk

			// Cold sequential read of the whole region (demand faults plus
			// batched gather prefetch, tail page included).
			buf := make([]byte, length)
			if err := c.Read(clk, c.Base(), buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if buf[i] != byte(i*7) {
					t.Fatalf("byte %d: got %#x want %#x", i, buf[i], byte(i*7))
				}
			}
			// Every page was pulled exactly once (the pool is larger than
			// the region), so the wire carried exactly the region's bytes:
			// a full-page charge for the short tail would overcount.
			if moved := rig.tr.BytesMoved(); moved != length {
				t.Fatalf("cold read moved %d wire bytes, want exactly %d", moved, length)
			}

			// Dirty the region's last bytes and flush: the write-back must
			// persist and charge each overlapped page at its true size —
			// the tail page at its short size, not a full page.
			dirty := make([]byte, 100)
			if int64(len(dirty)) > length {
				dirty = dirty[:length]
			}
			for i := range dirty {
				dirty[i] = byte(0xA0 + i)
			}
			wbStart := rig.tr.BytesMoved()
			addr := c.Base() + uint64(length) - uint64(len(dirty))
			if err := c.Write(clk, addr, dirty); err != nil {
				t.Fatal(err)
			}
			if err := c.FlushAll(clk); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(dirty))
			if err := rig.node.Read(addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, dirty) {
				t.Fatalf("tail write-back did not persist: got %x want %x", got, dirty)
			}
			firstDirty := (length - int64(len(dirty))) / PageBytes
			var wantWb int64
			for no := firstDirty; no*PageBytes < length; no++ {
				sz := length - no*PageBytes
				if sz > PageBytes {
					sz = PageBytes
				}
				wantWb += sz
			}
			if moved := rig.tr.BytesMoved() - wbStart; moved != wantWb {
				t.Fatalf("tail write-back moved %d wire bytes, want %d", moved, wantWb)
			}
		})
	}
}

// TestUnalignedWireCodecCharging checks the codec interaction: with a wire
// codec installed, encoded bytes plus bytes saved must equal the raw region
// size — a tail page charged at full page size would break the identity.
func TestUnalignedWireCodecCharging(t *testing.T) {
	length := int64(3*PageBytes + 777)
	rig := newUnalignedRig(t, 64, length, seqPrefetch{n: 3}, true)
	rig.tr.SetWireCodec(codec.ByteRun)
	buf := make([]byte, length)
	if err := rig.c.Read(rig.clk, rig.c.Base(), buf); err != nil {
		t.Fatal(err)
	}
	moved, saved := rig.tr.BytesMoved(), rig.tr.Stats().WireSaved
	if moved+saved != length {
		t.Fatalf("codec charging: moved %d + saved %d != raw %d", moved, saved, length)
	}
}

// TestFaultsInRangeClamping pins the interval-intersection semantics: the
// query range is clipped to the region, and empty or disjoint queries report
// zero instead of aliasing a neighbor page's counts (or, for length 0, an
// address underflow).
func TestFaultsInRangeClamping(t *testing.T) {
	length := int64(2*PageBytes + 100) // 3 pages, short tail
	rig := newUnalignedRig(t, 64, length, nil, false)
	c, clk := rig.c, rig.clk
	// Fault each page once.
	buf := make([]byte, 1)
	for _, off := range []uint64{0, PageBytes, 2 * PageBytes} {
		if err := c.Read(clk, c.Base()+off, buf); err != nil {
			t.Fatal(err)
		}
	}
	base, end := c.Base(), c.Base()+uint64(length)
	cases := []struct {
		name   string
		far    uint64
		length int64
		want   int64
	}{
		{"whole region", base, length, 3},
		{"first page only", base, PageBytes, 1},
		{"tail page only", base + 2*PageBytes, 100, 1},
		{"overhanging end", base + 2*PageBytes, 10 * PageBytes, 1},
		{"starts below base", base - PageBytes, PageBytes + 10, 1},
		{"entirely below base", base - 2*PageBytes, PageBytes, 0},
		{"entirely past end", end + PageBytes, PageBytes, 0},
		{"zero length", base, 0, 0},
		{"negative length", base, -5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.FaultsInRange(tc.far, tc.length); got != tc.want {
				t.Fatalf("FaultsInRange(%#x, %d) = %d, want %d", tc.far, tc.length, got, tc.want)
			}
		})
	}
}

// TestSwapPlaneConformance checks the paged plane directly on the cache,
// over a deliberately unaligned region so the tail page is exercised. Each
// subtest builds a fresh rig so no state leaks between behaviors.
func TestSwapPlaneConformance(t *testing.T) {
	const length = int64(6*PageBytes + 1234)
	mk := func() *unalignedRig { return newUnalignedRig(t, 16, length, nil, true) }
	// span returns an access window of up to want bytes at off, clipped to
	// the region.
	span := func(c *Cache, off, want int64) (uint64, []byte) {
		off = min(off, length-1)
		return c.Base() + uint64(off), make([]byte, min(want, length-off))
	}
	access := func(t *testing.T, rig *unalignedRig, addr uint64, buf []byte, write bool) {
		t.Helper()
		var err error
		if write {
			err = rig.c.Write(rig.clk, addr, buf)
		} else {
			err = rig.c.Read(rig.clk, addr, buf)
		}
		if err != nil {
			t.Fatalf("access at %#x (write=%v): %v", addr, write, err)
		}
	}
	// persisted checks that far memory behind the cache holds buf at addr.
	persisted := func(t *testing.T, rig *unalignedRig, addr uint64, buf []byte) bool {
		t.Helper()
		far := make([]byte, len(buf))
		if err := rig.node.Read(addr, far); err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(far, buf)
	}
	flush := func(t *testing.T, rig *unalignedRig) {
		t.Helper()
		if err := rig.c.FlushAll(rig.clk); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("swap", func(t *testing.T) {
		t.Run("ReadYourWrites", func(t *testing.T) {
			rig := mk()
			// At the head, across a page boundary, and at the tail.
			for _, off := range []int64{0, PageBytes/2 + 1, length - PageBytes/3 - 1} {
				addr, buf := span(rig.c, off, PageBytes*2+PageBytes/2)
				access(t, rig, addr, planePattern(addr, buf), true)
				got := make([]byte, len(buf))
				access(t, rig, addr, got, false)
				if !bytes.Equal(got, buf) {
					t.Fatalf("read-your-writes mismatch at offset %d", off)
				}
			}
		})
		t.Run("FlushPersists", func(t *testing.T) {
			rig := mk()
			addr, buf := span(rig.c, PageBytes/2, PageBytes*3)
			access(t, rig, addr, planePattern(addr, buf), true)
			flush(t, rig)
			if n := rig.c.Resident(); n != 0 {
				t.Fatalf("flush left %d pages resident", n)
			}
			if !persisted(t, rig, addr, buf) {
				t.Fatal("flush did not persist dirty bytes to far memory")
			}
		})
		t.Run("PrefetchAdvisory", func(t *testing.T) {
			rig := mk()
			addr, buf := span(rig.c, 0, PageBytes*2)
			access(t, rig, addr, planePattern(addr, buf), true)
			flush(t, rig)
			// In-range, duplicate, negative and far out-of-range proposals:
			// all advisory.
			if err := rig.c.PrefetchPages(rig.clk, []int64{0, 1, 0, -1, 100}); err != nil {
				t.Fatalf("prefetch: %v", err)
			}
			got := make([]byte, len(buf))
			access(t, rig, addr, got, false)
			if !bytes.Equal(got, buf) {
				t.Fatal("prefetched bytes differ from the far image")
			}
			if st := rig.c.Stats(); st.Prefetches == 0 || st.PrefetchDropped == 0 {
				t.Fatalf("prefetch issued nothing or dropped nothing: %+v", st)
			}
		})
		t.Run("TailUnit", func(t *testing.T) {
			rig := mk()
			tail := length % PageBytes
			addr, buf := span(rig.c, length-tail, tail)
			access(t, rig, addr, planePattern(addr, buf), true)
			flush(t, rig)
			if !persisted(t, rig, addr, buf) {
				t.Fatal("tail page did not persist")
			}
		})
		t.Run("StatsCount", func(t *testing.T) {
			rig := mk()
			addr, buf := span(rig.c, 0, PageBytes*2)
			before := rig.c.Stats()
			access(t, rig, addr, buf, false)
			mid := rig.c.Stats()
			if mid.MajorFaults <= before.MajorFaults || mid.Accesses <= before.Accesses {
				t.Fatalf("cold read did not count a fault and an access: %+v -> %+v", before, mid)
			}
			access(t, rig, addr, buf, false)
			after := rig.c.Stats()
			if after.MajorFaults != mid.MajorFaults || after.Accesses <= mid.Accesses {
				t.Fatalf("warm re-read faulted or went uncounted: %+v -> %+v", mid, after)
			}
			if n := rig.c.Resident(); n <= 0 || n > rig.c.Capacity() {
				t.Fatalf("resident %d outside (0, capacity %d]", n, rig.c.Capacity())
			}
		})
		t.Run("Determinism", func(t *testing.T) {
			run := func() (sim.Time, Stats, []byte) {
				rig := mk()
				for i := int64(0); i < 4; i++ {
					addr, buf := span(rig.c, i*PageBytes/2, PageBytes)
					access(t, rig, addr, planePattern(addr, buf), true)
				}
				if err := rig.c.PrefetchPages(rig.clk, []int64{0, 1}); err != nil {
					t.Fatal(err)
				}
				addr, got := span(rig.c, 0, PageBytes*2)
				access(t, rig, addr, got, false)
				flush(t, rig)
				far := make([]byte, len(got))
				if err := rig.node.Read(addr, far); err != nil {
					t.Fatal(err)
				}
				return rig.clk.Now(), rig.c.Stats(), far
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

// planePattern fills buf with the deterministic bytes expected at far
// address addr onward.
func planePattern(addr uint64, buf []byte) []byte {
	for i := range buf {
		buf[i] = byte((addr+uint64(i))*131 + 17)
	}
	return buf
}
