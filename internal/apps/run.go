package apps

import (
	"fmt"
	"reflect"
)

// Result is the uniform driver result: every experiment driver returns
// a value with a one-line Summary, so callers can run any application
// through one entry point and report uniformly.
type Result interface {
	// Summary is a one-line human-readable digest of the run.
	Summary() string
}

// Run executes the experiment driver selected by the config type:
// AggConfig/CacheConfig/PaxosConfig drive the simulated network,
// AggUDPConfig/PaxosUDPConfig the real-UDP backend. Pointer configs
// are accepted too. app may be nil; when given, its name must match
// the application the config drives (a guard against passing, say, a
// CACHE config with the PAXOS app).
func Run(app *App, cfg any) (Result, error) {
	if v := reflect.ValueOf(cfg); v.Kind() == reflect.Pointer && !v.IsNil() {
		cfg = v.Elem().Interface()
	}
	var name string
	var run func() (Result, error)
	switch c := cfg.(type) {
	case AggConfig:
		name, run = "AGG", func() (Result, error) { return RunAgg(c) }
	case AggUDPConfig:
		name, run = "AGG", func() (Result, error) { return RunAggUDP(c) }
	case CacheConfig:
		name, run = "CACHE", func() (Result, error) { return RunCache(c) }
	case PaxosConfig:
		name, run = "PAXOS", func() (Result, error) { return RunPaxos(c) }
	case PaxosUDPConfig:
		name, run = "PAXOS", func() (Result, error) { return RunPaxosUDP(c) }
	case nil:
		return nil, fmt.Errorf("apps: Run needs a config (AggConfig, CacheConfig, PaxosConfig, AggUDPConfig, or PaxosUDPConfig)")
	default:
		return nil, fmt.Errorf("apps: unsupported config type %T", cfg)
	}
	if app != nil && app.Name != name {
		return nil, fmt.Errorf("apps: config %T drives %s, but app is %s", cfg, name, app.Name)
	}
	return run()
}
