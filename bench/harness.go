package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// ctx is what a workload sees of one run: the seed its generators draw
// from, the size divisor, the tracer (nil when tracing is off) and the
// sinks for latency samples and per-layer numbers.
type ctx struct {
	seed int64
	// scale divides every frozen work count; 1 outside the smoke test.
	scale int
	// tr is non-nil only during the traced rounds of a --trace 1 run.
	tr *tracer
	// sabotage makes the driver corrupt one result (or drop one op)
	// before its oracle looks at it: the negative test of the oracle.
	sabotage bool
	// exact is set for the first measured round. Every round starts from
	// a state that depends only on the seed, so counters and simulated
	// times read in that round repeat exactly from run to run.
	exact bool
	// lat collects the latency samples of the current round, in µs of
	// the workload's own clock (simulated time inside netsim).
	lat []float64
	// tracedLat is every latency sample of the traced rounds, sorted.
	tracedLat []float64
	// layer collects per-layer metrics (exact counts always, timings in
	// the traced run).
	layer map[string]float64
	// cs accumulates the compiler-phase timers and sizes of set-up.
	cs *compileStats
}

// scaled divides a frozen work count by the run's size divisor.
func (c *ctx) scaled(n int) int {
	n /= c.scale
	if n < 1 {
		n = 1
	}
	return n
}

// roundOut is what one round did. Requests are operations whose result
// the oracle verified; attempted - requests = failed.
type roundOut struct {
	attempted int64
	requests  int64
}

// instance is a set-up workload, ready to run rounds. A round is the
// frozen unit of work: the same number of requests every time, each
// checked against the benchmark's oracle.
type instance interface {
	round(c *ctx) (roundOut, error)
	// stages is the sum of p4c StagesUsed over the programs this
	// workload runs (the p4_stages metric).
	stages() int
	// probes takes the isolated per-layer measurements of the traced
	// run within about budget of wall time.
	probes(c *ctx, budget time.Duration) error
	// budget splits the traced rounds' wall time over the layers: ns per
	// layer, summing to the time under the "round" spans unless a replay
	// overstated its layer.
	budget(c *ctx) map[string]float64
	close()
}

type workloadDef struct {
	name string
	why  string
	// work names the frozen size of one round, for the run record.
	work  string
	setup func(c *ctx) (instance, error)
}

// Set-up runs at least setupRepeats times, and on until setupMinTotal
// has been spent (at most setupMaxRepeats times), and its median is
// reported: a millisecond set-up is then the median of dozens of
// samples, not of five noisy ones.
const (
	setupRepeats    = 5
	setupMaxRepeats = 40
	setupMinTotal   = 300 * time.Millisecond
)

// warmupRounds precede every measured phase. A round is 1-4 % of the
// measured work, so one round is the "2 % warm-up" in whole rounds, and
// a fixed count keeps the first measured round's state deterministic.
const warmupRounds = 1

type roundSample struct {
	wallNs, cpuNs int64
	requests      int64
	// The round's latency samples: how many, their median, and the
	// highest percentile with at least ten samples beyond it.
	latN            int
	latP50, latTail float64
	latTailName     string
}

type phaseStats struct {
	rounds    []roundSample
	attempted int64
	requests  int64
	lat       []float64 // every latency sample, kept for traced rounds only
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRound runs one round, under a root span when c.tr is set, and
// files its wall time, CPU time and latency samples in ps.
func runRound(c *ctx, inst instance, ps *phaseStats) error {
	c.lat = c.lat[:0]
	cpu0 := cpuNow()
	t0 := time.Now()
	c.tr.begin("round", layerBench, int64(len(ps.rounds)))
	out, err := inst.round(c)
	c.tr.end(1)
	wall := time.Since(t0)
	cpu := cpuNow() - cpu0
	if err != nil {
		return err
	}
	c.exact = false
	ps.attempted += out.attempted
	ps.requests += out.requests
	rs := roundSample{wallNs: int64(wall), cpuNs: cpu, requests: out.requests}
	if len(c.lat) > 0 {
		if c.tr != nil {
			ps.lat = append(ps.lat, c.lat...)
		}
		sort.Float64s(c.lat)
		rs.latN, rs.latP50 = len(c.lat), quantileSorted(c.lat, 0.5)
		if name, q := tailFor(len(c.lat)); name != "" {
			rs.latTailName, rs.latTail = name, quantileSorted(c.lat, q)
		}
	}
	ps.rounds = append(ps.rounds, rs)
	return nil
}

func (ps *phaseStats) reqPerS() []float64 {
	out := make([]float64, 0, len(ps.rounds))
	for _, r := range ps.rounds {
		if r.wallNs > 0 {
			out = append(out, float64(r.requests)/(float64(r.wallNs)/1e9))
		}
	}
	return out
}

func (ps *phaseStats) cpuNsPerReq() []float64 {
	out := make([]float64, 0, len(ps.rounds))
	for _, r := range ps.rounds {
		if r.requests > 0 {
			out = append(out, float64(r.cpuNs)/float64(r.requests))
		}
	}
	return out
}

func (ps *phaseStats) latP50() []float64 {
	out := make([]float64, 0, len(ps.rounds))
	for _, r := range ps.rounds {
		if r.latP50 > 0 {
			out = append(out, r.latP50)
		}
	}
	return out
}

// latNote describes the latency distribution: the samples of all rounds
// are not kept (the untraced run's memory must not grow with its
// length), so the median and the tail are medians over the rounds of
// each round's own median and tail.
func (ps *phaseStats) latNote() timingNote {
	n := noteFor(ps.latP50())
	n.Samples, n.Tail, n.TailVal = 0, "", 0
	var tails []float64
	for _, r := range ps.rounds {
		n.Samples += r.latN
		if r.latTailName != "" {
			n.Tail = r.latTailName
			tails = append(tails, r.latTail)
		}
	}
	n.TailVal = median(tails)
	return n
}

// result is one run of one workload.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
	// Timings says, per reported timing, how many samples it rests on
	// and gives the highest percentile with at least ten samples beyond.
	Timings map[string]timingNote `json:"timings,omitempty"`
	Record  *runRecord            `json:"record,omitempty"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type timingNote struct {
	Samples int     `json:"samples"`
	Median  float64 `json:"median"`
	Tail    string  `json:"tail,omitempty"` // e.g. "p99"
	TailVal float64 `json:"tail_value,omitempty"`
	// Spread is the samples' interquartile distance over their median.
	Spread float64 `json:"spread"`
}

// runRecord carries what is needed to repeat or compare a run.
type runRecord struct {
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Scale        int    `json:"scale"`
	Work         string `json:"frozen_work_per_round"`
	WarmupRounds int    `json:"warmup_rounds"`
	Rounds       int    `json:"measured_rounds"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"numcpu"`
	GoVersion    string `json:"go_version"`
	GitRev       string `json:"git_rev"`
	TraceFile    string `json:"trace_file,omitempty"`
}

type runOpts struct {
	seed     int64
	seconds  int
	trace    bool
	scale    int
	sabotage bool
	traceOut string
}

// runWorkload is one contract run: set-up (repeated), warm-up, then the
// measured rounds, or for --trace 1 the alternating rounds and probes.
func runWorkload(def *workloadDef, o runOpts) (*result, error) {
	c := &ctx{seed: o.seed, scale: max(o.scale, 1), sabotage: o.sabotage, layer: map[string]float64{}}
	res := &result{Workload: def.name, Seed: o.seed, Metrics: map[string]metricVal{}, Timings: map[string]timingNote{}}
	rec := &runRecord{Seed: o.seed, Seconds: o.seconds, Scale: c.scale, Work: def.work, WarmupRounds: warmupRounds,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GitRev: gitRev()}
	res.Record = rec

	inst, setups, err := setUp(def, c)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	defer inst.close()
	rec.GOMAXPROCS = runtime.GOMAXPROCS(0) // as the workload's set-up left it

	for i := 0; i < warmupRounds; i++ {
		if _, err := inst.round(c); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
		}
	}
	c.exact = true

	total := time.Duration(o.seconds) * time.Second
	if o.trace {
		res.Trace = 1
		err = measureTraced(c, inst, total, o.traceOut, res)
	} else {
		err = measure(c, inst, total, setups, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// setUp runs the workload's set-up repeatedly and keeps the last
// instance; it returns every set-up's duration in seconds.
func setUp(def *workloadDef, c *ctx) (inst instance, seconds []float64, err error) {
	repeats, minTotal := setupRepeats, setupMinTotal
	if c.scale > 1 {
		repeats, minTotal = 1, 0 // the smoke test wants one quick pass, not a steady median
	}
	var spent time.Duration
	for i := 0; i < repeats || (spent < minTotal && i < setupMaxRepeats); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // the previous set-up's garbage must not stack onto this one's peak
		c.cs = &compileStats{}
		t0 := time.Now()
		if inst, err = def.setup(c); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		spent += d
		seconds = append(seconds, d.Seconds())
	}
	return inst, seconds, nil
}

// measure is the untraced run: rounds for d, then every end-to-end
// metric as the median over set-ups or rounds.
func measure(c *ctx, inst instance, d time.Duration, setups []float64, res *result) error {
	ps := &phaseStats{}
	for start := time.Now(); len(ps.rounds) == 0 || time.Since(start) < d; {
		if err := runRound(c, inst, ps); err != nil {
			return err
		}
	}
	res.Record.Rounds = len(ps.rounds)
	res.Attempted, res.Failed = ps.attempted, ps.attempted-ps.requests
	samples := map[string][]float64{
		"setup_s": setups, "req_per_s": ps.reqPerS(), "cpu_ns_per_req": ps.cpuNsPerReq(), "lat_p50_us": ps.latP50(),
		"peak_rss_mb": {peakRSSMiB()}, "p4_stages": {float64(inst.stages())},
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricVal{median(samples[m.Name]), m.Unit}
		if len(samples[m.Name]) > 1 {
			res.Timings[m.Name] = noteFor(samples[m.Name])
		}
	}
	res.Timings["lat_p50_us"] = ps.latNote()
	return nil
}

// measureTraced is the --trace 1 run. Rounds alternate between tracing
// off and on for 70 % of d, so both kinds meet the same heap and cache
// state and their difference is the tracing overhead; the isolated
// probes take the rest; then the budget and every per-layer metric.
func measureTraced(c *ctx, inst instance, d time.Duration, traceOut string, res *result) error {
	tr := newTracer()
	ref, tp := &phaseStats{}, &phaseStats{}
	for i, start := 0, time.Now(); i < 2 || time.Since(start) < d*7/10; i++ {
		ps := ref
		c.tr = nil
		if i%2 == 1 {
			ps, c.tr = tp, tr
		}
		if err := runRound(c, inst, ps); err != nil {
			return err
		}
	}
	c.tr = tr
	if err := inst.probes(c, d*3/10); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	res.Record.Rounds = len(ref.rounds) + len(tp.rounds)
	res.Attempted = ref.attempted + tp.attempted
	res.Failed = res.Attempted - ref.requests - tp.requests

	sort.Float64s(tp.lat)
	c.tracedLat = tp.lat
	if len(tp.lat) > 0 {
		res.Timings["lat_us"] = noteForSorted(tp.lat)
	}
	refRate, trRate := median(ref.reqPerS()), median(tp.reqPerS())
	if refRate > 0 {
		c.layer["trace.overhead_frac"] = (refRate - trRate) / refRate
	}
	rootNs, _ := tr.total("round")
	shares := inst.budget(c)
	var sum float64
	for _, l := range budgetLayers {
		sum += shares[l]
		if rootNs > 0 {
			c.layer["trace.share_"+l] = shares[l] / float64(rootNs)
		}
	}
	// Request time comes from the untraced rounds; the layer times from
	// the traced ones and the isolated replays. Both are means over their
	// rounds: a sum of spans has no median.
	if ref.requests > 0 && tp.requests > 0 {
		var refNs int64
		for _, r := range ref.rounds {
			refNs += r.wallNs
		}
		reqNs := float64(refNs) / float64(ref.requests)
		c.layer["trace.budget_residual_frac"] = math.Abs(sum/float64(tp.requests)-reqNs) / reqNs
	}
	c.cs.emit(c.layer)
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricVal{c.layer[m.Name], m.Unit}
	}
	if traceOut != "" {
		if err := tr.write(traceOut, res.Record); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		res.Record.TraceFile = traceOut
	}
	return nil
}

// Statistics ----------------------------------------------------------

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted is the exact order statistic (nearest rank), not an
// interpolation and not a histogram bucket.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailFor picks the highest percentile with at least ten samples
// beyond it.
func tailFor(n int) (string, float64) {
	tails := []struct {
		name string
		q    float64
	}{{"p99.99", 0.9999}, {"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}}
	for _, t := range tails {
		if float64(n)*(1-t.q) >= 10 {
			return t.name, t.q
		}
	}
	return "", 0
}

func noteFor(v []float64) timingNote {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return noteForSorted(s)
}

func noteForSorted(s []float64) timingNote {
	n := timingNote{Samples: len(s), Median: quantileSorted(s, 0.5), Spread: spread(s)}
	if name, q := tailFor(len(s)); name != "" {
		n.Tail, n.TailVal = name, quantileSorted(s, q)
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
