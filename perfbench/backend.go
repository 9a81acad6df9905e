package main

import (
	"time"

	"mira/internal/exec"
	"mira/internal/ir"
	"mira/internal/rt"
	"mira/internal/sim"
)

// Backend call classes the decorator times separately.
const (
	opAccess = iota // Access, BulkRead/BulkWrite, RemoteAccess/RemoteBulk
	opAsync         // Prefetch, PrefetchBatch, EvictHint, Fence, Release, OffloadTransfer
	opFlush         // FlushObject (FlushAll is timed by the caller)
	numOps
)

// tracedBackend is the traced run's exec.Backend: it wraps the runtime the
// harness would hand to exec.New and counts and times every call. It embeds
// *rt.Runtime so every optional capability exec probes for (RemoteEnv,
// MissCount, ScatterEngine) reaches the runtime unchanged; without them
// offload would silently fall back and the traced run would measure a
// different program.
type tracedBackend struct {
	*rt.Runtime
	calls [numOps]int64
	ns    [numOps]time.Duration
}

var (
	_ exec.Backend   = (*tracedBackend)(nil)
	_ exec.RemoteEnv = (*tracedBackend)(nil)
)

func (b *tracedBackend) done(op int, t0 time.Time) {
	b.ns[op] += time.Since(t0)
	b.calls[op]++
}

// totalCalls is the number of Backend calls the interpreter made.
func (b *tracedBackend) totalCalls() int64 {
	var n int64
	for _, c := range b.calls {
		n += c
	}
	return n
}

// totalTime is the host time spent inside Backend calls.
func (b *tracedBackend) totalTime() time.Duration {
	var d time.Duration
	for _, t := range b.ns {
		d += t
	}
	return d
}

func (b *tracedBackend) Access(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool, opts rt.AccessOpts) error {
	t0 := time.Now()
	err := b.Runtime.Access(clk, name, elem, field, buf, write, opts)
	b.done(opAccess, t0)
	return err
}

func (b *tracedBackend) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	t0 := time.Now()
	err := b.Runtime.BulkRead(clk, name, elem, buf)
	b.done(opAccess, t0)
	return err
}

func (b *tracedBackend) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	t0 := time.Now()
	err := b.Runtime.BulkWrite(clk, name, elem, buf)
	b.done(opAccess, t0)
	return err
}

func (b *tracedBackend) RemoteAccess(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool) error {
	t0 := time.Now()
	err := b.Runtime.RemoteAccess(clk, name, elem, field, buf, write)
	b.done(opAccess, t0)
	return err
}

func (b *tracedBackend) RemoteBulk(clk *sim.Clock, name string, elem int64, buf []byte, write bool) error {
	t0 := time.Now()
	err := b.Runtime.RemoteBulk(clk, name, elem, buf, write)
	b.done(opAccess, t0)
	return err
}

func (b *tracedBackend) Prefetch(clk *sim.Clock, name string, elem int64, field ir.Field) error {
	t0 := time.Now()
	err := b.Runtime.Prefetch(clk, name, elem, field)
	b.done(opAsync, t0)
	return err
}

func (b *tracedBackend) PrefetchBatch(clk *sim.Clock, entries []rt.BatchEntry) error {
	t0 := time.Now()
	err := b.Runtime.PrefetchBatch(clk, entries)
	b.done(opAsync, t0)
	return err
}

func (b *tracedBackend) EvictHint(clk *sim.Clock, name string, elem int64) error {
	t0 := time.Now()
	err := b.Runtime.EvictHint(clk, name, elem)
	b.done(opAsync, t0)
	return err
}

func (b *tracedBackend) Fence(clk *sim.Clock) {
	t0 := time.Now()
	b.Runtime.Fence(clk)
	b.done(opAsync, t0)
}

func (b *tracedBackend) Release(clk *sim.Clock, name string) error {
	t0 := time.Now()
	err := b.Runtime.Release(clk, name)
	b.done(opAsync, t0)
	return err
}

func (b *tracedBackend) OffloadTransfer(clk *sim.Clock, argBytes, resBytes int, remoteCompute sim.Duration) {
	t0 := time.Now()
	b.Runtime.OffloadTransfer(clk, argBytes, resBytes, remoteCompute)
	b.done(opAsync, t0)
}

func (b *tracedBackend) FlushObject(clk *sim.Clock, name string) error {
	t0 := time.Now()
	err := b.Runtime.FlushObject(clk, name)
	b.done(opFlush, t0)
	return err
}
