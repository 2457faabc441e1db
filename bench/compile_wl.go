package main

import (
	"fmt"
	"strings"
	"time"

	"netcl/internal/apps"
	"netcl/internal/p4"
	"netcl/internal/passes"
)

// compile: repeated sweeps of the full ncc pipeline, from one goroutine
// (a closed loop): the four registry apps x every device x {TNA,
// v1model} = 12 programs, each printed, parsed back and fitted, plus
// parse and fit of the six handwritten baselines. Request = one program
// compiled (or parsed) and fitted. The oracle: the printed text of
// Parse(Print(p)) equals Print(p), every TNA program and every baseline
// still fits.
const (
	// compileSweepsPerRound is frozen: ~0.2 s a round at the seed commit.
	compileSweepsPerRound = 4
)

var compileTargets = []passes.Target{passes.TargetTNA, passes.TargetV1Model}

// compileApps is Table III's order.
var compileApps = []string{"AGG", "CACHE", "PAXOS", "CALC"}

var compileDef = &workloadDef{
	name:  "compile",
	why:   "The compiler is half the paper (Tables III/IV, Fig. 13): the only workload where lang, sema, lower, passes, codegen, p4 and p4c do the work; elsewhere they appear only in setup_s.",
	work:  fmt.Sprintf("%d sweeps x (12 generated programs + 6 handwritten baselines)", compileSweepsPerRound),
	setup: setupCompile,
}

type baseline struct {
	name, src string
}

type compileWL struct {
	apps      []*apps.App
	baselines []baseline
	// tnaStages is the p4_stages metric: the stages of every TNA program,
	// generated and handwritten, summed over one sweep.
	tnaStages int
}

func setupCompile(c *ctx) (instance, error) {
	w := &compileWL{}
	for _, name := range compileApps {
		app := apps.ByName(name)
		if app == nil {
			return nil, fmt.Errorf("no app %q in the registry", name)
		}
		w.apps = append(w.apps, app)
	}
	files := []string{"agg.p4", "cache.p4"}
	for _, r := range apps.PaxosRoleBaselines {
		files = append(files, r.File)
	}
	files = append(files, "calc.p4")
	for _, f := range files {
		src, err := (&apps.App{BaselineFile: f}).Baseline()
		if err != nil {
			return nil, err
		}
		w.baselines = append(w.baselines, baseline{f, src})
	}
	// One sweep establishes the expected stage total and the size counts.
	quiet := &ctx{}
	out := w.sweep(quiet, c.cs, false)
	if out.requests != out.attempted {
		return nil, fmt.Errorf("set-up sweep: %d of %d programs failed", out.attempted-out.requests, out.attempted)
	}
	w.tnaStages = c.cs.tnaStages
	return w, nil
}

// sweep compiles everything once. cs receives the phase timers and
// counts; c receives the spans and latency samples.
func (w *compileWL) sweep(c *ctx, cs *compileStats, sabotage bool) roundOut {
	var out roundOut
	req := int64(0)
	done := func(ok bool, t0 time.Time) {
		out.attempted++
		if ok {
			out.requests++
			c.lat = append(c.lat, float64(time.Since(t0))/1e3)
		}
		req++
	}
	for _, target := range compileTargets {
		for _, app := range w.apps {
			t0 := time.Now()
			sp, err := cs.frontend(c.tr, req, app.Name, app.NetCL, app.Defines)
			for _, dev := range app.Devices {
				ok := err == nil
				var prog *p4.Program
				if ok {
					prog, err = cs.backend(c.tr, req, sp, app.Name, dev, target, false)
					ok = err == nil
				}
				if ok {
					ok = w.roundTrip(c, cs, req, prog, sabotage)
					sabotage = false
					rep := cs.fit(c.tr, req, prog)
					if target == passes.TargetTNA && !rep.Fits {
						ok = false
					}
				}
				done(ok, t0)
				t0 = time.Now()
			}
		}
	}
	for _, b := range w.baselines {
		t0 := time.Now()
		prog, err := cs.parse(c.tr, req, b.name, b.src)
		ok := err == nil
		if ok {
			ok = cs.fit(c.tr, req, prog).Fits
		}
		done(ok, t0)
	}
	return out
}

// roundTrip is the compile oracle: the program's text survives
// Print -> Parse -> Print unchanged.
func (w *compileWL) roundTrip(c *ctx, cs *compileStats, req int64, prog *p4.Program, sabotage bool) bool {
	var src string
	cs.timed(c.tr, phPrint, req, func() { src = p4.Print(prog) })
	cs.srcBytes += len(src)
	text := src
	if sabotage {
		b := []byte(src)
		b[len(b)/2] ^= 0x01
		text = string(b)
	}
	re, err := cs.parse(c.tr, req, prog.Name, text)
	if err != nil {
		return false
	}
	return sameCode(p4.Print(re), src)
}

// sameCode compares two P4 texts line by line, skipping comment lines:
// comments are all that Parse does not carry over.
func sameCode(a, b string) bool {
	next := func(s string) (line, rest string) {
		for s != "" {
			line, rest, _ = strings.Cut(s, "\n")
			if t := strings.TrimSpace(line); t != "" && !strings.HasPrefix(t, "//") {
				return line, rest
			}
			s = rest
		}
		return "", ""
	}
	for {
		la, ra := next(a)
		lb, rb := next(b)
		if la != lb {
			return false
		}
		if la == "" {
			return true
		}
		a, b = ra, rb
	}
}

func (w *compileWL) round(c *ctx) (roundOut, error) {
	var out roundOut
	for i := 0; i < c.scaled(compileSweepsPerRound); i++ {
		cs := &compileStats{}
		o := w.sweep(c, cs, c.sabotage && i == 0)
		c.cs.addTimes(cs)
		out.attempted += o.attempted
		out.requests += o.requests
	}
	return out, nil
}

func (w *compileWL) stages() int { return w.tnaStages }
func (w *compileWL) close()      {}

func (w *compileWL) probes(c *ctx, budget time.Duration) error { return nil }

func (w *compileWL) budget(c *ctx) map[string]float64 { return spanShares(c) }
