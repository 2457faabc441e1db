// Package netcl is the public API of the NetCL reproduction: a unified
// programming framework for in-network computing (SC'24). It compiles
// NetCL-C device code to P4 for Tofino-style (TNA) and v1model
// targets, provides the host runtime (messages, managed memory), and
// drives the bundled behavioral-model switch and network simulator
// used to reproduce the paper's evaluation.
//
// Typical use:
//
//	art, err := netcl.Compile("cache", src, netcl.Options{Target: netcl.TargetTNA})
//	// art.Devices[i].Source is the generated P4; art.Specs drives
//	// message packing on hosts.
package netcl

import (
	"fmt"
	"time"

	"netcl/internal/codegen"
	"netcl/internal/ir"
	"netcl/internal/lang"
	"netcl/internal/lower"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/sema"
)

// Target selects the P4 backend.
type Target = passes.Target

// Supported targets.
const (
	TargetTNA     = passes.TargetTNA
	TargetV1Model = passes.TargetV1Model
)

// Options configures compilation.
type Options struct {
	// Defines injects object-like preprocessor constants (-DNAME=V).
	Defines map[string]uint64
	// Target selects the backend: TargetTNA (the default) or
	// TargetV1Model. Anything else is an error.
	Target Target
	// Devices lists the device IDs to compile for. Empty means the
	// program's explicit locations, or device 1 for location-less
	// programs.
	Devices []uint16
	// DisableSpeculation turns off aggressive speculation (§VI-B flag).
	DisableSpeculation bool
	// DisableLookupDup turns off lookup-memory duplication (§VI-B flag).
	DisableLookupDup bool
	// EnableCmpRewrite turns on the dynamic-compare → sub+MSB rewrite.
	EnableCmpRewrite bool
}

// DeviceArtifact is the compilation result for one device location.
type DeviceArtifact struct {
	DeviceID uint16
	Module   *ir.Module
	P4       *p4.Program
	// Source is the generated P4 program text.
	Source string
	// Stats reports what the pass pipeline did.
	Stats passes.Stats
}

// Artifact is the result of compiling a NetCL program.
type Artifact struct {
	Name    string
	Program *sema.Program
	Target  Target
	Devices []*DeviceArtifact
	// Specs maps computation IDs to message layouts (consumed by the
	// host runtime's pack/unpack, like the compiler-embedded records
	// of §VI-A).
	Specs map[uint8]*runtime.MessageSpec
	// FrontendTime and BackendTime split compilation time the way
	// Table IV does (ncc vs. P4 compilation).
	FrontendTime time.Duration
	BackendTime  time.Duration
}

// Device returns the artifact for a device ID, or nil.
func (a *Artifact) Device(id uint16) *DeviceArtifact {
	for _, d := range a.Devices {
		if d.DeviceID == id {
			return d
		}
	}
	return nil
}

// Compile parses, checks, lowers, optimizes, and generates P4 for
// every device location of the program.
func Compile(name, src string, opts Options) (*Artifact, error) {
	target, err := passes.ResolveTarget(opts.Target)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	opts.Target = target
	start := time.Now()
	var diags lang.Diagnostics
	file := lang.ParseFile(name+".ncl", src, opts.Defines, &diags)
	prog := sema.Check(file, &diags)
	if err := diags.Err(); err != nil {
		return nil, err
	}

	devices := opts.Devices
	if len(devices) == 0 {
		devices = prog.Locations()
	}
	if len(devices) == 0 {
		devices = []uint16{1}
	}

	art := &Artifact{
		Name:    name,
		Program: prog,
		Target:  opts.Target,
		Specs:   map[uint8]*runtime.MessageSpec{},
	}
	for comp, kernels := range prog.Computations {
		art.Specs[comp] = specFor(comp, kernels[0])
	}
	art.FrontendTime = time.Since(start)

	backendStart := time.Now()
	popts := passes.DefaultOptions(opts.Target)
	if opts.DisableSpeculation {
		popts.Speculate = false
	}
	if opts.DisableLookupDup {
		popts.DuplicateLookups = false
	}
	popts.CmpToSubMSB = opts.EnableCmpRewrite

	for _, dev := range devices {
		mod := lower.Module(prog, dev, lower.Options{}, &diags)
		if err := diags.Err(); err != nil {
			return nil, err
		}
		if mod == nil {
			return nil, fmt.Errorf("%s: lowering for device %d produced no module", name, dev)
		}
		stats, err := passes.Run(mod, popts)
		if err != nil {
			return nil, fmt.Errorf("%s (device %d): %w", name, dev, err)
		}
		p4prog, err := codegen.Generate(mod, codegen.Options{
			Target:   p4.Target(opts.Target),
			ProgName: fmt.Sprintf("%s_dev%d", name, dev),
		})
		if err != nil {
			return nil, fmt.Errorf("%s (device %d): %w", name, dev, err)
		}
		art.Devices = append(art.Devices, &DeviceArtifact{
			DeviceID: dev,
			Module:   mod,
			P4:       p4prog,
			Source:   p4.Print(p4prog),
			Stats:    stats,
		})
	}
	art.BackendTime = time.Since(backendStart)
	return art, nil
}

// specFor derives the runtime message layout from a kernel.
func specFor(comp uint8, k *sema.Function) *runtime.MessageSpec {
	spec := &runtime.MessageSpec{Comp: comp}
	ks := k.Spec()
	for i := range ks.Counts {
		spec.Args = append(spec.Args, runtime.ArgSpec{
			Name:  k.Params[i].Name(),
			Bytes: ks.Types[i].Bits() / 8,
			Count: ks.Counts[i],
			Out:   ks.Dirs[i] != sema.ByVal,
		})
	}
	return spec
}
