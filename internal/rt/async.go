package rt

import (
	"errors"
	"fmt"
	"sort"

	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/ir"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/trace"
	"mira/internal/transport"
)

// prefetchFailed reports a fetch failure a prefetch may swallow: prefetch is
// advisory, so transient trouble (or an open breaker) degrades to "no
// prefetch" instead of aborting the program.
func prefetchFailed(err error) bool {
	return errors.Is(err, transport.ErrFarUnavailable) || transport.IsTransient(err)
}

// Prefetch starts an asynchronous fetch of the line holding obj[elem].field
// (§4.5 adaptive prefetching). The issuing thread pays only the posting
// cost; a later access to the line waits for the remainder, if any.
func (r *Runtime) Prefetch(clk *sim.Clock, name string, elem int64, field ir.Field) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: prefetch of unknown object %q", name)
	}
	if elem < 0 || elem >= o.decl.Count {
		// Speculative prefetch past the end: drop silently, but count it —
		// dropped proposals are the denominator policy accuracy needs.
		if o.place.Kind == PlaceSection {
			s := r.secs[o.place.Section]
			s.pf.Dropped++
			s.mPfDropped.Inc()
		}
		return nil
	}
	switch o.place.Kind {
	case PlaceLocal:
		return nil
	case PlaceSwap:
		// A compiled prefetch of a paged object becomes a page advisory,
		// so the hint still works when the planner put the object on the
		// paged plane. (Bind refuses swap-placed objects without a swap
		// section, so one exists here.)
		addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes) + uint64(field.Offset)
		return r.swapPrefetchFars(clk, []uint64{addr})
	}
	s := r.secs[o.place.Section]
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes) + uint64(field.Offset)
	tag := cache.AlignDown(addr, s.spec.Cache.LineBytes)
	if _, resident := s.sec.Peek(addr); resident {
		return nil
	}
	if _, inflight := s.inflight[tag]; inflight {
		return nil
	}
	if r.recoverFromWbq(clk, s, o, addr, tag) {
		return nil
	}
	clk.Advance(r.cfg.Net.PerMessageOverhead)
	l, victim := s.sec.Reserve(addr)
	if err := r.retireVictim(clk, s, o, victim); err != nil {
		return err
	}
	post := clk.Now()
	done, err := r.fetchLine(post, s, o, l)
	if err != nil {
		if prefetchFailed(err) {
			s.sec.Drop(tag)
			delete(s.inflight, tag)
			s.pf.Dropped++
			s.mPfDropped.Inc()
			return nil
		}
		return err
	}
	s.inflight[tag] = done
	s.specul[tag] = true
	s.pf.Issued++
	s.mPfIssued.Inc()
	if r.trc != nil {
		r.trc.Span(post, done, "rt", "prefetch", trace.S("obj", name))
	}
	return nil
}

// swapPrefetchFars turns far addresses into page advisories (out-of-range
// addresses become dropped proposals, as the advisory contract requires).
func (r *Runtime) swapPrefetchFars(clk *sim.Clock, fars []uint64) error {
	base := r.swapC.Base()
	pnos := make([]int64, 0, len(fars))
	for _, far := range fars {
		if far < base {
			pnos = append(pnos, -1)
			continue
		}
		pnos = append(pnos, int64((far-base)/swap.PageBytes))
	}
	if r.cfg.SwapCompress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	return r.swapC.PrefetchPages(clk, pnos)
}

// takeQueued removes tag's parked write-back from s's queue. The queued
// copy is the newest data, so every path that is about to fetch or
// overwrite a missing line must take it first: a fetch would read stale far
// bytes, and a queued entry left alive would clobber the new bytes when the
// queue drains.
func (r *Runtime) takeQueued(s *sectionRT, tag uint64) (wbqEntry, bool) {
	if s.wbq == nil {
		return wbqEntry{}, false
	}
	e, ok := s.wbq.take(tag)
	if ok {
		r.wbqStats.Hits++
	}
	return e, ok
}

// restore installs a queued line's bytes into l, still dirty: the newest
// copy lives only locally until it is written back again.
func (e wbqEntry) restore(l *cache.Line) {
	copy(l.Data, e.data)
	l.Dirty = true
}

// recoverFromWbq serves a prefetch target from the section's write-back
// queue — the line was evicted but its write-back has not drained, so the
// queued copy is the newest data and no network is needed. Reports whether
// the line was recovered.
func (r *Runtime) recoverFromWbq(clk *sim.Clock, s *sectionRT, o *objectRT, addr, tag uint64) bool {
	e, ok := r.takeQueued(s, tag)
	if !ok {
		return false
	}
	l, victim := s.sec.Reserve(addr)
	if err := r.retireVictim(clk, s, o, victim); err != nil {
		// Re-park the recovered line; the caller's prefetch is advisory.
		s.sec.Drop(tag)
		s.wbq.add(tag, e.data, e.o, e.ranges)
		return true
	}
	e.restore(l)
	return true
}

// BatchEntry names one piece of a batched prefetch.
type BatchEntry struct {
	Obj   string
	Elem  int64
	Field ir.Field
}

// PrefetchBatch fetches several lines — possibly of different objects and
// sections — in a single doorbell-batched chain of one-sided reads (§4.5
// data access batching). The issuing thread pays one posting cost for the
// whole chain; each line is tagged in-flight with its own arrival instant
// (the reply streams pieces in request order), so a later access waits only
// for its own line, not for the chain's tail.
func (r *Runtime) PrefetchBatch(clk *sim.Clock, entries []BatchEntry) error {
	type piece struct {
		s    *sectionRT
		l    *cache.Line
		tag  uint64
		snap bool // record a delta-base snapshot once the bytes land
	}
	var addrs []uint64
	var sizes []int
	var pieces []piece
	var swapFars []uint64
	allCompress := true
	for _, e := range entries {
		o, ok := r.objs[e.Obj]
		if !ok {
			return fmt.Errorf("rt: batch prefetch of unknown object %q", e.Obj)
		}
		if o.place.Kind != PlaceSection {
			if o.place.Kind == PlaceSwap && e.Elem >= 0 && e.Elem < o.decl.Count {
				// Batch entries whose object lives on the paged plane
				// become one page advisory batch below.
				swapFars = append(swapFars,
					o.farBase+uint64(e.Elem)*uint64(o.decl.ElemBytes)+uint64(e.Field.Offset))
			}
			continue
		}
		if e.Elem < 0 || e.Elem >= o.decl.Count {
			s := r.secs[o.place.Section]
			s.pf.Dropped++
			s.mPfDropped.Inc()
			continue
		}
		s := r.secs[o.place.Section]
		addr := o.farBase + uint64(e.Elem)*uint64(o.decl.ElemBytes) + uint64(e.Field.Offset)
		tag := cache.AlignDown(addr, s.spec.Cache.LineBytes)
		if _, resident := s.sec.Peek(addr); resident {
			continue
		}
		if _, inflight := s.inflight[tag]; inflight {
			continue
		}
		if r.recoverFromWbq(clk, s, o, addr, tag) {
			continue
		}
		l, victim := s.sec.Reserve(addr)
		if err := r.retireVictim(clk, s, o, victim); err != nil {
			return err
		}
		addrs = append(addrs, tag)
		sizes = append(sizes, len(l.Data))
		pieces = append(pieces, piece{s: s, l: l, tag: tag,
			snap: s.snaps != nil && len(o.selFields) == 0})
		if !s.spec.Compress {
			allCompress = false
		}
	}
	if len(swapFars) > 0 {
		if err := r.swapPrefetchFars(clk, swapFars); err != nil {
			return err
		}
	}
	if len(addrs) == 0 {
		return nil
	}
	clk.Advance(r.cfg.Net.VectoredPostCost(len(addrs)))
	post := clk.Now()
	// One chain carries every piece, so the codec is all-or-nothing: only a
	// batch entirely of compressed sections ships compressed.
	if allCompress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	data, done, err := r.tr.GatherOneSided(post, addrs, sizes)
	if err != nil {
		if prefetchFailed(err) {
			for _, p := range pieces {
				if cur, ok := p.s.sec.Peek(p.tag); ok && cur == p.l {
					p.s.sec.Drop(p.tag)
				}
				p.s.pf.Dropped++
				p.s.mPfDropped.Inc()
			}
			return nil
		}
		return err
	}
	// Per-line arrival: piece i is ready as soon as its own bytes are off
	// the wire — the chain's completion minus the trailing pieces' wire
	// time.
	readies := make([]sim.Time, len(pieces))
	suffix := 0
	for i := len(pieces) - 1; i >= 0; i-- {
		readies[i] = done.Add(-r.cfg.Net.WireTime(suffix))
		suffix += sizes[i]
	}
	pos := 0
	for i, p := range pieces {
		// A line evicted by a later Reserve in this same batch (set
		// conflict or capacity pressure) has a new tenant: copying into it
		// would corrupt that tenant, and tagging it in-flight would leave a
		// stale entry suppressing every future prefetch of the line. Skip
		// pieces whose reserved line is no longer theirs.
		if cur, ok := p.s.sec.Peek(p.tag); ok && cur == p.l && p.l.Tag == p.tag {
			copy(p.l.Data, data[pos:pos+sizes[i]])
			if p.snap {
				p.s.snaps[p.tag] = append([]byte(nil), p.l.Data...)
			}
			p.s.inflight[p.tag] = readies[i]
			p.s.specul[p.tag] = true
			p.s.pf.Issued++
			p.s.mPfIssued.Inc()
		} else {
			p.s.pf.Dropped++
			p.s.mPfDropped.Inc()
		}
		pos += sizes[i]
	}
	if r.trc != nil {
		r.trc.Span(post, done, "rt", "prefetch.batch", trace.I("lines", int64(len(addrs))))
	}
	return nil
}

// EvictHint marks obj[elem]'s line evictable and flushes it asynchronously
// if dirty (§4.5 eviction hints).
func (r *Runtime) EvictHint(clk *sim.Clock, name string, elem int64) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: evict hint for unknown object %q", name)
	}
	if o.place.Kind != PlaceSection || elem < 0 || elem >= o.decl.Count {
		return nil
	}
	s := r.secs[o.place.Section]
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes)
	l, resident := s.sec.Peek(addr)
	if !resident {
		return nil
	}
	s.sec.MarkEvictable(addr)
	if l.Dirty {
		if s.wbq == nil {
			clk.Advance(r.cfg.Net.PerMessageOverhead)
		}
		if err := r.wbqEnqueue(clk, s, o, l.Tag, l.Data); err != nil {
			return err
		}
		l.Dirty = false
	}
	return nil
}

// Pin adjusts the don't-evict count of obj[elem]'s line (§4.6 shared
// sections). Pinning an absent line is a no-op.
func (r *Runtime) Pin(name string, elem int64, delta int) {
	o, ok := r.objs[name]
	if !ok || o.place.Kind != PlaceSection {
		return
	}
	s := r.secs[o.place.Section]
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes)
	s.sec.Pin(addr, delta)
}

// SettleAsync marks all in-flight prefetches and write-backs complete
// without advancing any clock — a harness utility for tests that reuse a
// runtime across independent timing frames. (The multithreaded drivers no
// longer need it: interleaved threads share one virtual-time frame, so
// asynchronous completion instants remain meaningful across threads.)
func (r *Runtime) SettleAsync() {
	for _, s := range r.secs {
		for tag := range s.inflight {
			delete(s.inflight, tag)
		}
	}
	if r.swapC != nil {
		r.swapC.SettleAsync()
	}
	r.lastFlush = 0
}

// Fence blocks until every in-flight prefetch and asynchronous write-back
// has completed — including lines still parked in the write-back queues,
// which are drained here (a drain failure re-parks them and is surfaced by
// the next flush, so Fence itself stays infallible).
func (r *Runtime) Fence(clk *sim.Clock) {
	start := clk.Now()
	for _, s := range r.secs {
		_, _ = r.drainWbq(clk, s)
	}
	latest := r.lastFlush
	for _, s := range r.secs {
		for _, t := range s.inflight {
			if t > latest {
				latest = t
			}
		}
	}
	clk.AdvanceTo(latest)
	r.trc.Span(start, clk.Now(), "rt", "fence")
}

// FlushObject writes back and drops every cached line of the object,
// blocking until far memory is up to date. The compiler emits this before
// offloaded calls that read the object (§4.8) and at section lifetime ends.
func (r *Runtime) FlushObject(clk *sim.Clock, name string) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: flush of unknown object %q", name)
	}
	switch o.place.Kind {
	case PlaceLocal:
		return nil
	case PlaceSwap:
		if r.cfg.SwapCompress {
			r.setCodec(codec.ByteRun)
			defer r.setCodec(codec.None)
		}
		return r.swapC.FlushAll(clk)
	}
	start0 := clk.Now()
	s := r.secs[o.place.Section]
	lb := uint64(s.spec.Cache.LineBytes)
	start := cache.AlignDown(o.farBase, int(lb))
	end := o.farBase + uint64(o.decl.SizeBytes())
	var tags []uint64
	s.sec.ForEachResident(func(l *cache.Line) {
		if l.Tag >= start && l.Tag < end {
			tags = append(tags, l.Tag)
		}
	})
	last := clk.Now()
	for _, tag := range tags {
		v, ok := s.sec.Drop(tag)
		if !ok {
			continue
		}
		delete(s.inflight, tag)
		s.evictSpec(tag)
		if !v.Dirty {
			if s.snaps != nil {
				delete(s.snaps, tag)
			}
			continue
		}
		if s.wbq != nil {
			// Park the line so the drain below pushes the whole flush as
			// one coalesced vectored write.
			if err := r.wbqEnqueue(clk, s, o, v.Tag, v.Data); err != nil {
				return err
			}
			continue
		}
		ranges, skip := r.deltaPlan(clk, s, o, v.Tag, v.Data)
		if skip {
			continue
		}
		var done sim.Time
		var err error
		if ranges != nil {
			done, err = r.writebackPatch(clk.Now(), s, v.Tag, v.Data, ranges)
		} else {
			done, err = r.writebackLine(clk.Now(), o, v.Tag, v.Data)
		}
		if err != nil {
			return err
		}
		if done > last {
			last = done
		}
	}
	// A flush is a synchronization point: everything parked in the
	// section's queue — this object's lines and earlier evictions — must
	// reach far memory before the flush returns.
	done, err := r.drainWbq(clk, s)
	if err != nil {
		return err
	}
	if done > last {
		last = done
	}
	clk.AdvanceTo(last)
	if r.trc != nil {
		r.trc.Span(start0, clk.Now(), "rt", "flush.obj", trace.S("obj", name))
	}
	return nil
}

// Release ends an object's cached lifetime (§4.1): every line is dropped;
// dirty lines are written back asynchronously (the issuing thread pays only
// posting costs). Swap- and local-placed objects are left alone — the swap
// section has its own global reclamation.
func (r *Runtime) Release(clk *sim.Clock, name string) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: release of unknown object %q", name)
	}
	if o.place.Kind != PlaceSection {
		return nil
	}
	s := r.secs[o.place.Section]
	lb := uint64(s.spec.Cache.LineBytes)
	start := cache.AlignDown(o.farBase, int(lb))
	end := o.farBase + uint64(o.decl.SizeBytes())
	var tags []uint64
	s.sec.ForEachResident(func(l *cache.Line) {
		if l.Tag >= start && l.Tag < end {
			tags = append(tags, l.Tag)
		}
	})
	for _, tag := range tags {
		v, ok := s.sec.Drop(tag)
		if !ok {
			continue
		}
		delete(s.inflight, tag)
		s.evictSpec(tag)
		if v.Dirty {
			if s.wbq == nil {
				clk.Advance(r.cfg.Net.PerMessageOverhead)
			}
			if err := r.wbqEnqueue(clk, s, o, v.Tag, v.Data); err != nil {
				return err
			}
		} else if s.snaps != nil {
			delete(s.snaps, tag)
		}
	}
	return nil
}

// FlushAll flushes every section and the swap pool; used at program end so
// DumpObject sees final data, and by multithreaded barriers.
func (r *Runtime) FlushAll(clk *sim.Clock) error {
	flushStart := clk.Now()
	// Flush in name order: write-back order decides how transfers queue on
	// the shared link, and map iteration order would make final sim times
	// run-dependent.
	names := make([]string, 0, len(r.objs))
	for name, o := range r.objs {
		if o.place.Kind == PlaceSection {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := r.FlushObject(clk, name); err != nil {
			return err
		}
	}
	if r.swapC != nil {
		if r.cfg.SwapCompress {
			r.setCodec(codec.ByteRun)
		}
		err := r.swapC.FlushAll(clk)
		if r.cfg.SwapCompress {
			r.setCodec(codec.None)
		}
		if err != nil {
			return err
		}
	}
	// Ordering under faults: the per-section write-back queues drain first
	// (their lines may land in the transport's degraded-mode overlay), and
	// only then is the overlay flushed — so everything reaches far memory
	// before DumpObject bypasses the cache to read it.
	if _, err := r.drainAllWbq(clk); err != nil {
		return err
	}
	done, err := r.tr.Flush(clk.Now())
	if err != nil {
		return err
	}
	clk.AdvanceTo(done)
	r.Fence(clk)
	r.trc.Span(flushStart, clk.Now(), "rt", "flush.all")
	return nil
}

// ReleaseSection ends a section's lifetime (§4.1: "we end a section as soon
// as its lifetime in the program ends"): dirty lines are flushed
// asynchronously and every line is dropped, freeing the space for live
// sections. (Static sizing already accounts for overlap via the ILP; the
// runtime release keeps the model honest and the stats meaningful.)
func (r *Runtime) ReleaseSection(clk *sim.Clock, idx int) error {
	if idx < 0 || idx >= len(r.secs) {
		return fmt.Errorf("rt: release of section %d of %d", idx, len(r.secs))
	}
	s := r.secs[idx]
	var tags []uint64
	s.sec.ForEachResident(func(l *cache.Line) { tags = append(tags, l.Tag) })
	for _, tag := range tags {
		v, ok := s.sec.Drop(tag)
		if !ok {
			continue
		}
		delete(s.inflight, tag)
		s.evictSpec(tag)
		if v.Dirty {
			// Sections serve objects with disjoint far ranges, so
			// resolving the owner by tag is unambiguous.
			o := r.ownerOf(tag)
			if o == nil {
				return fmt.Errorf("rt: dirty line %#x has no owning object", tag)
			}
			if err := r.wbqEnqueue(clk, s, o, v.Tag, v.Data); err != nil {
				return err
			}
		} else if s.snaps != nil {
			delete(s.snaps, tag)
		}
	}
	return nil
}

// rebuildOwnerIndex rebuilds the farBase-sorted index of section-placed
// objects that ownerOf searches. Bind calls it after placement; tests that
// relocate objects directly must call it again.
func (r *Runtime) rebuildOwnerIndex() {
	r.byFar = r.byFar[:0]
	for _, o := range r.objs {
		if o.place.Kind == PlaceSection {
			r.byFar = append(r.byFar, o)
		}
	}
	sort.Slice(r.byFar, func(i, j int) bool {
		if r.byFar[i].farBase != r.byFar[j].farBase {
			return r.byFar[i].farBase < r.byFar[j].farBase
		}
		return r.byFar[i].decl.Name < r.byFar[j].decl.Name
	})
}

// ownerOf finds the section-placed object whose allocation covers a far
// address. An object owns [farBase, farBase+size), and additionally claims
// the aligned-down head of its first line when farBase is not line-aligned —
// its dirty first line carries that tag. When that head overlaps the
// previous object's tail, exact containment wins: resolution is a binary
// search over the farBase-sorted index, so the answer never depends on map
// iteration order.
func (r *Runtime) ownerOf(far uint64) *objectRT {
	i := sort.Search(len(r.byFar), func(i int) bool { return r.byFar[i].farBase > far })
	if i > 0 {
		o := r.byFar[i-1]
		if far < o.farBase+uint64(o.decl.SizeBytes()) {
			return o
		}
	}
	if i < len(r.byFar) {
		o := r.byFar[i]
		if far >= cache.AlignDown(o.farBase, r.secs[o.place.Section].spec.Cache.LineBytes) {
			return o
		}
	}
	return nil
}
