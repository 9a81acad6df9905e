package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// tracer is the traced repetitions' state: in-memory spans around the
// calls into each layer, the CPU profile of every timed phase, and the
// allocation pass's counts. A nil *tracer is the untraced run: every
// method is a no-op.
type tracer struct {
	start time.Time
	spans []span
	// cpu accumulates per-layer CPU time over the timed phases.
	cpu     cpuShares
	cpuBuf  bytes.Buffer
	profile bool // profile every timed phase
	cpuOn   bool
	// allocPass makes the next runs count heap allocations inside
	// Backend calls from a sampled heap profile.
	allocPass     bool
	backendAllocs float64
	backendCalls  int64
}

// span is one timed step. Parent 0 marks a root; ids start at 1.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func newTracer() *tracer { return &tracer{start: time.Now(), cpu: cpuShares{}} }

func (t *tracer) since() float64 {
	return float64(time.Since(t.start)) / float64(time.Millisecond)
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartMS: t.since()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndMS = t.since()
}

func (t *tracer) allocs() bool { return t != nil && t.allocPass }

// startCPU starts profiling a timed phase.
func (t *tracer) startCPU() {
	if t == nil || !t.profile {
		return
	}
	t.cpuBuf.Reset()
	// An error means another CPU profile is running (go test
	// -cpuprofile); the shares then stay empty.
	t.cpuOn = pprof.StartCPUProfile(&t.cpuBuf) == nil
}

// stopCPU stops the timed phase's profile and credits its samples.
func (t *tracer) stopCPU() error {
	if t == nil || !t.cpuOn {
		return nil
	}
	pprof.StopCPUProfile()
	t.cpuOn = false
	return t.cpu.add(t.cpuBuf.Bytes())
}

// writeSpans writes every span as JSON to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
