package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The tracer records spans from the benchmark's own files, around the
// calls into each layer. It is off in the untraced run: every method is
// a nil-receiver no-op there, so the measured phase pays one pointer
// test per call site and no clock read.
//
// A span covers one call, or a batch of calls when a single call is
// shorter than a microsecond (calls > 1): two clock reads cost about
// 75 ns here, so a batch of 256 sub-microsecond calls keeps them under
// 1 % of the span. Callbacks that run inside netsim's event loop cannot
// be batched (simulator code runs between them); those are sampled, one
// in sampleStride, and carry weight = sampleStride.

// Layer names: the repository's module names, plus "bench" for the
// benchmark's own driver, generator and oracle code.
const (
	layerBench    = "bench"
	layerCompiler = "compiler"
	layerRuntime  = "runtime"
	layerNetsim   = "netsim"
	layerBmv2     = "bmv2"
	layerP4rt     = "p4rt"
)

var budgetLayers = []string{layerCompiler, layerRuntime, layerNetsim, layerBmv2, layerP4rt, layerBench}

// sampleStride is prime so it cannot lock onto a periodic callback
// pattern (8 workers x window 8 delivers completions in groups of 8).
const sampleStride = 31

// maxKeptSpans bounds the detailed records kept for the trace file;
// the per-name aggregates below always cover every span.
const maxKeptSpans = 20000

type spanRec struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Req     int64  `json:"req"`    // request id: chunk, GET, call, batch or program sequence number
	Parent  int32  `json:"parent"` // index of the causing span in this file, -1 for a root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int32  `json:"calls"`  // calls covered by this span
	Weight  int32  `json:"weight"` // 1, or sampleStride for a sampled span
}

type spanAgg struct {
	layer   string
	spans   int64
	calls   int64
	totalNs int64 // weight-scaled
	childNs int64 // weight-scaled time covered by child spans
}

type openSpan struct {
	name, layer string
	kept        int32 // index in tracer.kept, -1 when over the cap
	start       int64
	weight      int32
	childNs     int64
}

type tracer struct {
	t0      time.Time
	open    []openSpan
	kept    []spanRec
	dropped int64
	aggs    map[string]*spanAgg
	tick    int // sampling counter
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), aggs: map[string]*spanAgg{}, kept: make([]spanRec, 0, maxKeptSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open span. Spans nest strictly
// (the benchmark's drivers are single-goroutine where they trace).
func (t *tracer) begin(name, layer string, req int64) {
	if t == nil {
		return
	}
	t.beginWeighted(name, layer, req, 1)
}

func (t *tracer) beginWeighted(name, layer string, req int64, weight int32) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].kept
		if w := t.open[n-1].weight; w > weight {
			weight = w // a span under a sampled span stands for as many calls
		}
	}
	kept := int32(-1)
	if len(t.kept) < maxKeptSpans {
		kept = int32(len(t.kept))
		t.kept = append(t.kept, spanRec{Name: name, Layer: layer, Req: req, Parent: parent, Weight: weight})
	} else {
		t.dropped++
	}
	t.open = append(t.open, openSpan{name: name, layer: layer, kept: kept, weight: weight, start: t.now()})
}

// end closes the innermost open span, which covered calls calls.
func (t *tracer) end(calls int) {
	if t == nil {
		return
	}
	end := t.now()
	n := len(t.open) - 1
	sp := t.open[n]
	t.open = t.open[:n]
	dur := (end - sp.start) * int64(sp.weight)
	a := t.aggs[sp.name]
	if a == nil {
		a = &spanAgg{layer: sp.layer}
		t.aggs[sp.name] = a
	}
	a.spans++
	a.calls += int64(calls) * int64(sp.weight)
	a.totalNs += dur
	a.childNs += sp.childNs
	if n > 0 {
		t.open[n-1].childNs += dur
	}
	if sp.kept >= 0 {
		r := &t.kept[sp.kept]
		r.StartNs, r.EndNs, r.Calls = sp.start, end, int32(calls)
	}
}

// sampled reports whether this call of a hot in-loop callback is one
// of the 1-in-sampleStride that gets a span.
func (t *tracer) sampled() bool {
	if t == nil {
		return false
	}
	t.tick++
	if t.tick < sampleStride {
		return false
	}
	t.tick = 0
	return true
}

func (t *tracer) beginSampled(name, layer string, req int64) {
	t.beginWeighted(name, layer, req, sampleStride)
}

// total returns the weight-scaled time and calls under one span name.
func (t *tracer) total(name string) (ns, calls int64) {
	if t == nil {
		return 0, 0
	}
	if a := t.aggs[name]; a != nil {
		return a.totalNs, a.calls
	}
	return 0, 0
}

// perCall returns mean nanoseconds per covered call under one name.
func (t *tracer) perCall(name string) float64 {
	ns, calls := t.total(name)
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

// selfByLayer sums span self time (duration minus the part child spans
// cover) per layer.
func (t *tracer) selfByLayer() map[string]int64 {
	out := map[string]int64{}
	for _, a := range t.aggs {
		out[a.layer] += a.totalNs - a.childNs
	}
	return out
}

// write dumps the kept spans and the aggregates once, at the end.
func (t *tracer) write(path string, rec *runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type aggOut struct {
		Name    string `json:"name"`
		Layer   string `json:"layer"`
		Spans   int64  `json:"spans"`
		Calls   int64  `json:"calls"`
		TotalNs int64  `json:"total_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	out := struct {
		Record  *runRecord `json:"record"`
		Dropped int64      `json:"spans_not_kept"`
		Aggs    []aggOut   `json:"aggregates"`
		Spans   []spanRec  `json:"spans"`
	}{Record: rec, Dropped: t.dropped, Spans: t.kept}
	for _, name := range sortedKeys(t.aggs) {
		a := t.aggs[name]
		out.Aggs = append(out.Aggs, aggOut{name, a.layer, a.spans, a.calls, a.totalNs, a.totalNs - a.childNs})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(&out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
