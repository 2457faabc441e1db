package apps

// slo.go scores a churn timeline the way an operator would read it:
// requests are bucketed into fixed windows of virtual time by issue
// time, each window is "available" when enough of its requests met the
// deadline, and the run splits into three phases around the injected
// event — Baseline (windows fully before the event), During (from the
// event until latency recovers), After (from the recovery window on).
// Recovery is the first window at or after the event's end whose p99
// is back within ε of the baseline p99 and which meets availability;
// the gap between event end and that window is the recovery time.

import (
	"math"
	"sort"
)

// SLOConfig sets the objective a churn scenario is scored against.
type SLOConfig struct {
	// WindowNs is the availability accounting granularity.
	WindowNs float64
	// DeadlineNs is the per-request latency objective; lost requests
	// miss it by definition.
	DeadlineNs float64
	// AvailFrac is the fraction of a window's requests that must meet
	// the deadline for the window to count as available (empty windows
	// are available). Default 0.9.
	AvailFrac float64
	// EpsilonP99 is the recovery tolerance: recovered when a window's
	// p99 ≤ baseline p99 × (1+ε). Default 0.25.
	EpsilonP99 float64
}

// Sample is one scored request: issue time, measured round trip, and
// whether a well-formed response arrived at all (lost requests carry
// OK=false and no RTT).
type Sample struct {
	IssueNs float64
	RTTNs   float64
	OK      bool
}

// PhaseStats summarizes one phase of the timeline.
type PhaseStats struct {
	Windows   int     `json:"windows"`
	Available int     `json:"available_windows"`
	Requests  int     `json:"requests"`
	Met       int     `json:"met_deadline"`
	Lost      int     `json:"lost"`
	P50Ns     float64 `json:"p50_ns"`
	P99Ns     float64 `json:"p99_ns"`
	P999Ns    float64 `json:"p999_ns"`
}

// Availability is the fraction of the phase's windows that met the
// availability bar (1 when the phase has no windows).
func (p *PhaseStats) Availability() float64 {
	if p.Windows == 0 {
		return 1
	}
	return float64(p.Available) / float64(p.Windows)
}

// SLOReport is the scored timeline.
type SLOReport struct {
	Windows      int     `json:"windows"`
	Availability float64 `json:"availability"`

	Baseline PhaseStats `json:"baseline"`
	During   PhaseStats `json:"during"`
	After    PhaseStats `json:"after"`

	BaselineAvailability float64 `json:"baseline_availability"`
	DuringAvailability   float64 `json:"during_availability"`
	AfterAvailability    float64 `json:"after_availability"`

	// Recovered reports whether any post-event window returned within
	// ε of the baseline p99; RecoveryNs is the gap between the event's
	// end and the start of that window (0 = immediate).
	Recovered  bool    `json:"recovered"`
	RecoveryNs float64 `json:"recovery_ns"`
}

// window accumulates one accounting window.
type window struct {
	requests int
	met      int
	lost     int
	rtts     []float64
}

func (w *window) available(cfg SLOConfig) bool {
	if w.requests == 0 {
		return true
	}
	return float64(w.met) >= cfg.AvailFrac*float64(w.requests)
}

// p99 is the window's exact 99th-percentile RTT over responses that
// arrived (+Inf when every request was lost — never "recovered").
func (w *window) p99() float64 {
	if len(w.rtts) == 0 {
		if w.requests > 0 {
			return math.Inf(1)
		}
		return 0
	}
	sort.Float64s(w.rtts)
	return w.rtts[int(0.99*float64(len(w.rtts)-1))]
}

// ScoreSLO scores samples against the objective around one event span
// [eventStartNs, eventEndNs). The three phase window counts always sum
// to the total window count, wherever the event lands (the property
// the accounting tests pin).
func ScoreSLO(samples []Sample, eventStartNs, eventEndNs float64, cfg SLOConfig) *SLOReport {
	cfg.WindowNs = orDefault(cfg.WindowNs, 100e3)
	cfg.AvailFrac = orDefault(cfg.AvailFrac, 0.9)
	cfg.EpsilonP99 = orDefault(cfg.EpsilonP99, 0.25)
	rep := &SLOReport{}
	if len(samples) == 0 {
		rep.Availability = 1
		rep.BaselineAvailability, rep.DuringAvailability, rep.AfterAvailability = 1, 1, 1
		rep.Recovered = true
		return rep
	}

	// Bucket samples into windows by issue time; every window from the
	// first to the last issue exists, even if empty.
	maxIssue := samples[0].IssueNs
	for _, s := range samples {
		maxIssue = max(maxIssue, s.IssueNs)
	}
	nw := int(maxIssue/cfg.WindowNs) + 1
	ws := make([]window, nw)
	for _, s := range samples {
		w := &ws[min(max(int(s.IssueNs/cfg.WindowNs), 0), nw-1)]
		w.requests++
		if !s.OK {
			w.lost++
			continue
		}
		w.rtts = append(w.rtts, s.RTTNs)
		if s.RTTNs <= cfg.DeadlineNs {
			w.met++
		}
	}
	rep.Windows = nw

	// Baseline: windows fully before the event. Its p99 anchors the
	// recovery test; with no pre-event responses the anchor is +Inf and
	// recovery reduces to the availability bar alone.
	baseEnd := 0 // first window index not fully before the event
	for baseEnd < nw && float64(baseEnd+1)*cfg.WindowNs <= eventStartNs {
		baseEnd++
	}
	base := window{requests: 1}
	for i := 0; i < baseEnd; i++ {
		base.rtts = append(base.rtts, ws[i].rtts...)
	}
	baseP99 := base.p99()

	// Recovery: first window starting at/after the event's end that is
	// both available and back within ε of the baseline p99.
	recStart := nw // window index where After begins
	for i := 0; i < nw; i++ {
		if float64(i)*cfg.WindowNs < eventEndNs {
			continue
		}
		if ws[i].available(cfg) && ws[i].p99() <= baseP99*(1+cfg.EpsilonP99) {
			recStart = i
			break
		}
	}
	if recStart < nw {
		rep.Recovered = true
		rep.RecoveryNs = max(float64(recStart)*cfg.WindowNs-eventEndNs, 0)
	}
	if recStart < baseEnd {
		// The whole event span fell inside one baseline window (or the
		// event was empty): keep the phases disjoint.
		recStart = baseEnd
	}

	// Fold windows into phases.
	fold := func(ph *PhaseStats, lo, hi int) {
		var h Hist
		for i := lo; i < hi; i++ {
			w := &ws[i]
			ph.Windows++
			if w.available(cfg) {
				ph.Available++
			}
			ph.Requests += w.requests
			ph.Met += w.met
			ph.Lost += w.lost
			for _, r := range w.rtts {
				h.Record(uint64(r))
			}
		}
		if h.Count() > 0 {
			ph.P50Ns = float64(h.Quantile(0.50))
			ph.P99Ns = float64(h.Quantile(0.99))
			ph.P999Ns = float64(h.Quantile(0.999))
		}
	}
	fold(&rep.Baseline, 0, baseEnd)
	fold(&rep.During, baseEnd, recStart)
	fold(&rep.After, recStart, nw)

	avail := rep.Baseline.Available + rep.During.Available + rep.After.Available
	rep.Availability = float64(avail) / float64(nw)
	rep.BaselineAvailability = rep.Baseline.Availability()
	rep.DuringAvailability = rep.During.Availability()
	rep.AfterAvailability = rep.After.Availability()
	return rep
}
