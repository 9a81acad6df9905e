package rt

import (
	"fmt"

	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/trace"
)

// InstallSectionPolicy attaches an advisory prefetch policy to section
// idx's demand-miss stream (prefetcher zoo, line plane). One policy
// instance per section: sections have disjoint miss streams and stateful
// policies must not mix them. Nil uninstalls. Call after Bind.
func (r *Runtime) InstallSectionPolicy(idx int, p prefetch.Policy) error {
	if idx < 0 || idx >= len(r.secs) {
		return fmt.Errorf("rt: install policy on section %d of %d", idx, len(r.secs))
	}
	r.secs[idx].policy = p
	return nil
}

// policyMiss runs section s's advisory policy on a demand miss of tag:
// filters its proposals (in-section, absent, not in flight) and issues the
// survivors as one speculative doorbell-batched gather. Runs only after
// the demand access fully completed: speculative wire traffic queues
// behind the miss it rides on, and the speculative reservations — which
// may evict any line, including the demand line — can never invalidate an
// in-progress copy.
func (r *Runtime) policyMiss(clk *sim.Clock, s *sectionRT, tag uint64) {
	if s.policy == nil {
		return
	}
	lb := int64(s.spec.Cache.LineBytes)
	r.policyIssue(clk, s, s.policy.OnMiss(int64(tag)/lb))
}

// policyTouch feeds the first demand touch of a speculatively fetched line
// to stream-maintaining policies (prefetch.StreamTopUp) so a covered
// stream sustains its runahead window without demand-missing once per
// window.
func (r *Runtime) policyTouch(clk *sim.Clock, s *sectionRT, tag uint64) {
	tu, ok := s.policy.(prefetch.StreamTopUp)
	if !ok {
		return
	}
	lb := int64(s.spec.Cache.LineBytes)
	r.policyIssue(clk, s, tu.OnPrefetchedTouch(int64(tag)/lb))
}

// policyIssue filters a policy's proposals and issues the survivors as one
// speculative doorbell-batched gather.
//
// The policy runs on the runner thread, off the access path: its table
// work (PerMissOverhead) and the speculative doorbell are charged by
// delaying when the gather is posted — slower predictors land their lines
// later (and count Late more often) — never by stalling the demand access.
func (r *Runtime) policyIssue(clk *sim.Clock, s *sectionRT, cands []int64) {
	if len(cands) == 0 {
		return
	}
	lb := int64(s.spec.Cache.LineBytes)
	var tags []uint64
	var owners []*objectRT
	for _, u := range cands {
		if u < 0 {
			s.pf.Dropped++
			s.mPfDropped.Inc()
			continue
		}
		t := uint64(u * lb)
		o := r.ownerOf(t)
		if o == nil || r.secs[o.place.Section] != s {
			// Past an object's end or outside this section's objects:
			// the proposal cannot be honored here.
			s.pf.Dropped++
			s.mPfDropped.Inc()
			continue
		}
		if _, resident := s.sec.Peek(t); resident {
			continue
		}
		if _, inflight := s.inflight[t]; inflight {
			continue
		}
		if r.recoverFromWbq(clk, s, o, t, t) {
			continue
		}
		tags = append(tags, t)
		owners = append(owners, o)
	}
	r.issueSpeculative(clk, s, tags, owners)
}

// issueSpeculative fetches the given absent line tags of one section in a
// single doorbell-batched gather, marking each landed line speculative.
// Entirely advisory: any failure — no evictable slot, far node
// unreachable, line re-tenanted mid-batch — drops the affected pieces and
// counts them, never surfacing an error (the triggering demand access
// already succeeded).
func (r *Runtime) issueSpeculative(clk *sim.Clock, s *sectionRT, tags []uint64, owners []*objectRT) {
	if len(tags) == 0 {
		return
	}
	var addrs []uint64
	var sizes []int
	var lines []*cache.Line
	var snapOK []bool
	for i, t := range tags {
		l, victim := s.sec.Reserve(t)
		if err := r.retireVictim(clk, s, owners[i], victim); err != nil {
			// The victim's write-back failed hard; give its slot back and
			// skip this piece. The demand path will surface persistent
			// trouble — an advisory fetch must not.
			s.sec.Drop(t)
			s.pf.Dropped++
			s.mPfDropped.Inc()
			continue
		}
		addrs = append(addrs, t)
		sizes = append(sizes, len(l.Data))
		lines = append(lines, l)
		snapOK = append(snapOK, s.snaps != nil && len(owners[i].selFields) == 0)
	}
	if len(addrs) == 0 {
		return
	}
	post := clk.Now().Add(r.cfg.Net.VectoredPostCost(len(addrs))).Add(s.policy.PerMissOverhead())
	if s.spec.Compress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	data, done, err := r.tr.GatherOneSided(post, addrs, sizes)
	if err != nil {
		// Advisory under faults: drop every piece whose reserved line is
		// still its own, count them, swallow the error.
		for i, l := range lines {
			if cur, ok := s.sec.Peek(addrs[i]); ok && cur == l {
				s.sec.Drop(addrs[i])
			}
			s.pf.Dropped++
			s.mPfDropped.Inc()
		}
		return
	}
	// Per-line arrival, as in PrefetchBatch: piece i is ready when its own
	// bytes are off the wire.
	readies := make([]sim.Time, len(addrs))
	suffix := 0
	for i := len(addrs) - 1; i >= 0; i-- {
		readies[i] = done.Add(-r.cfg.Net.WireTime(suffix))
		suffix += sizes[i]
	}
	pos := 0
	for i, l := range lines {
		if cur, ok := s.sec.Peek(addrs[i]); ok && cur == l && l.Tag == addrs[i] {
			copy(l.Data, data[pos:pos+sizes[i]])
			if snapOK[i] {
				s.snaps[addrs[i]] = append([]byte(nil), l.Data...)
			}
			s.inflight[addrs[i]] = readies[i]
			s.specul[addrs[i]] = true
			s.pf.Issued++
			s.mPfIssued.Inc()
		} else {
			// Evicted by a later Reserve in this same batch: the bytes
			// arrived but the slot belongs to someone else now.
			s.pf.Dropped++
			s.mPfDropped.Inc()
		}
		pos += sizes[i]
	}
	if r.trc != nil {
		r.trc.Span(post, done, "rt", "prefetch.policy",
			trace.S("section", s.spec.Cache.Name), trace.I("lines", int64(len(addrs))))
	}
}

// LineUnit maps obj[elem] to its cache section and the section plane's
// prefetch unit (the global line index of the element's line). ok=false
// for non-section placements — access programs skip those elements.
func (r *Runtime) LineUnit(name string, elem int64) (sec int, unit int64, ok bool) {
	o, found := r.objs[name]
	if !found || o.place.Kind != PlaceSection || elem < 0 || elem >= o.decl.Count {
		return 0, 0, false
	}
	s := r.secs[o.place.Section]
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes)
	tag := cache.AlignDown(addr, s.spec.Cache.LineBytes)
	return o.place.Section, int64(tag) / int64(s.spec.Cache.LineBytes), true
}

// PageUnit maps obj[elem] to its swap page number — the page plane's
// prefetch unit. ok=false for non-swap placements.
func (r *Runtime) PageUnit(name string, elem int64) (unit int64, ok bool) {
	o, found := r.objs[name]
	if !found || o.place.Kind != PlaceSwap || r.swapC == nil || elem < 0 || elem >= o.decl.Count {
		return 0, false
	}
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes)
	return int64((addr - r.swapC.Base()) / swap.PageBytes), true
}

// SectionPrefetchStats reports section idx's prefetch efficacy counters.
func (r *Runtime) SectionPrefetchStats(idx int) prefetch.Efficacy {
	return r.secs[idx].pf
}

// PrefetchStats aggregates prefetch efficacy across the whole runtime:
// every cache section plus the swap pool.
func (r *Runtime) PrefetchStats() prefetch.Efficacy {
	var e prefetch.Efficacy
	for _, s := range r.secs {
		e.Add(s.pf)
	}
	if r.swapC != nil {
		st := r.swapC.Stats()
		e.Add(prefetch.Efficacy{
			Issued:  st.Prefetches,
			Useful:  st.PrefetchUsed,
			Useless: st.PrefetchUseless,
			Dropped: st.PrefetchDropped,
			Late:    st.PrefetchLate,
		})
	}
	return e
}
