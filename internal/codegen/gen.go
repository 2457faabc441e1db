// Package codegen translates IR modules into P4 programs for the TNA
// and v1model targets (§VI-B "Code generation"). The emitted program
// embeds three layers, mirroring the paper's deployment story (§VI-C):
//
//  1. the *base program*: Ethernet/IPv4/UDP parsing, link-layer
//     forwarding, and the NetCL-port classifier;
//  2. the *device runtime*: NetCL header handling, the computation
//     dispatch switch, and the action→4-tuple epilogue;
//  3. the *generated kernels*: one region per kernel, produced from IR.
package codegen

import (
	"fmt"
	"sort"

	"netcl/internal/ir"
	"netcl/internal/p4"
	"netcl/internal/wire"
)

// Options configures code generation.
type Options struct {
	Target p4.Target
	// ProgName names the generated program.
	ProgName string
	// ECMP emits the equal-cost spreader (set_ecmp_group action,
	// flow-hash bucket pick, netcl_ecmp member table) alongside
	// netcl_fwd. Fabric deployments need it so the route installer can
	// spread flows over parallel uplinks; single-box programs skip it —
	// the dependent member table costs a pipeline stage.
	ECMP bool
}

// Generate emits a complete P4 program for the module.
func Generate(mod *ir.Module, opts Options) (*p4.Program, error) {
	if opts.ProgName == "" {
		opts.ProgName = mod.Name
	}
	g := &generator{
		mod:  mod,
		tgt:  opts.Target,
		ecmp: opts.ECMP,
		prog: &p4.Program{Name: opts.ProgName, Target: opts.Target},
		vals: map[ir.Value]p4.Expr{},
	}
	g.baseHeaders()
	g.dataHeaders()
	g.buildParser()
	g.buildIngress()
	if err := g.err; err != nil {
		return nil, err
	}
	if _, err := g.prog.Validate(); err != nil {
		return nil, err
	}
	return g.prog, nil
}

type generator struct {
	mod  *ir.Module
	tgt  p4.Target
	ecmp bool
	prog *p4.Program
	ctl  *p4.Control
	vals map[ir.Value]p4.Expr
	err  error
	// curKernelTag disambiguates temp names across kernels.
	curKernelTag string

	// uniq provides fresh suffixes for generated objects.
	uniq int
}

func (g *generator) fresh(prefix string) string {
	g.uniq++
	return fmt.Sprintf("%s_%d", prefix, g.uniq)
}

func (g *generator) fail(format string, args ...interface{}) {
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
}

// comps returns the module's computation ids in ascending order.
func (g *generator) comps() []int {
	var out []int
	seen := map[int]bool{}
	for _, f := range g.mod.Funcs {
		c := int(f.Comp)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func dataHeaderName(comp uint8) string { return fmt.Sprintf("d%d", comp) }

// argField names the header field of a kernel argument element.
func argField(p *ir.MsgParam, k int) string {
	if p.Count == 1 {
		return p.Name
	}
	return fmt.Sprintf("%s_%d", p.Name, k)
}

func (g *generator) baseHeaders() {
	g.prog.Headers = append(g.prog.Headers,
		&p4.HeaderDecl{Name: "ethernet", Fields: []*p4.Field{
			{Name: "dst_addr", Bits: 48}, {Name: "src_addr", Bits: 48}, {Name: "ether_type", Bits: 16},
		}},
		&p4.HeaderDecl{Name: "ipv4", Fields: []*p4.Field{
			{Name: "version_ihl", Bits: 8}, {Name: "diffserv", Bits: 8},
			{Name: "total_len", Bits: 16}, {Name: "identification", Bits: 16},
			{Name: "flags_frag", Bits: 16}, {Name: "ttl", Bits: 8},
			{Name: "protocol", Bits: 8}, {Name: "hdr_checksum", Bits: 16},
			{Name: "src_addr", Bits: 32}, {Name: "dst_addr", Bits: 32},
		}},
		&p4.HeaderDecl{Name: "udp", Fields: []*p4.Field{
			{Name: "src_port", Bits: 16}, {Name: "dst_port", Bits: 16},
			{Name: "length", Bits: 16}, {Name: "checksum", Bits: 16},
		}},
		&p4.HeaderDecl{Name: "netcl", Fields: []*p4.Field{
			{Name: "src", Bits: wire.SrcBits}, {Name: "dst", Bits: wire.DstBits},
			{Name: "from", Bits: wire.FromBits}, {Name: "to", Bits: wire.ToBits},
			{Name: "comp", Bits: wire.CompBits}, {Name: "act", Bits: wire.ActBits},
			{Name: "arg", Bits: wire.ArgBits},
		}},
	)
	g.prog.Metadata = append(g.prog.Metadata,
		&p4.Field{Name: "nexthop", Bits: 16},
		&p4.Field{Name: "mcast_grp", Bits: 16},
		&p4.Field{Name: "drop_flag", Bits: 1},
		&p4.Field{Name: "egress_port", Bits: 16},
	)
	if g.ecmp {
		g.prog.Metadata = append(g.prog.Metadata,
			&p4.Field{Name: "ecmp_grp", Bits: 16},
			&p4.Field{Name: "ecmp_bkt", Bits: 16},
		)
	}
}

// dataHeaders emits one NetCL data header per computation, with the
// kernel arguments flattened into scalar fields.
func (g *generator) dataHeaders() {
	seen := map[uint8]bool{}
	for _, f := range g.mod.Funcs {
		if seen[f.Comp] {
			continue
		}
		seen[f.Comp] = true
		h := &p4.HeaderDecl{Name: dataHeaderName(f.Comp)}
		for _, p := range f.Params {
			for k := 0; k < p.Count; k++ {
				h.Fields = append(h.Fields, &p4.Field{Name: argField(p, k), Bits: p.Ty.Bits})
			}
		}
		if len(h.Fields) == 0 {
			h.Fields = append(h.Fields, &p4.Field{Name: "pad", Bits: 8})
		}
		g.prog.Headers = append(g.prog.Headers, h)
	}
}

func (g *generator) buildParser() {
	ps := &p4.Parser{Name: "IgParser"}
	ps.States = append(ps.States,
		&p4.ParserState{Name: "start", Next: "parse_ethernet"},
		&p4.ParserState{
			Name: "parse_ethernet", Extracts: []string{"ethernet"},
			Select: &p4.Select{
				Key:     p4.FR("hdr", "ethernet", "ether_type"),
				Cases:   []p4.SelectCase{{Value: 0x0800, State: "parse_ipv4"}},
				Default: "accept",
			},
		},
		&p4.ParserState{
			Name: "parse_ipv4", Extracts: []string{"ipv4"},
			Select: &p4.Select{
				Key:     p4.FR("hdr", "ipv4", "protocol"),
				Cases:   []p4.SelectCase{{Value: 17, State: "parse_udp"}},
				Default: "accept",
			},
		},
		&p4.ParserState{
			Name: "parse_udp", Extracts: []string{"udp"},
			Select: &p4.Select{
				Key:     p4.FR("hdr", "udp", "dst_port"),
				Cases:   []p4.SelectCase{{Value: wire.NetCLPort, State: "parse_netcl"}},
				Default: "accept",
			},
		},
	)
	netclState := &p4.ParserState{
		Name: "parse_netcl", Extracts: []string{"netcl"},
		Select: &p4.Select{Key: p4.FR("hdr", "netcl", "comp"), Default: "accept"},
	}
	for _, c := range g.comps() {
		st := fmt.Sprintf("parse_d%d", c)
		netclState.Select.Cases = append(netclState.Select.Cases,
			p4.SelectCase{Value: uint64(c), State: st})
		ps.States = append(ps.States, &p4.ParserState{
			Name: st, Extracts: []string{dataHeaderName(uint8(c))}, Next: "accept",
		})
	}
	ps.States = append(ps.States[:4], append([]*p4.ParserState{netclState}, ps.States[4:]...)...)
	g.prog.Parser = ps
}

func (g *generator) buildIngress() {
	ctl := &p4.Control{Name: "In"}
	g.ctl = ctl
	g.prog.Ingress = ctl

	// Base program actions and tables. netcl_fwd resolves a destination
	// either to a port directly (set_port) or, when the ECMP spreader is
	// compiled in and several equal-cost uplinks lead there, to an ECMP
	// group (set_ecmp_group); netcl_ecmp then picks the member port by
	// flow hash.
	ctl.Actions = append(ctl.Actions,
		&p4.ActionDecl{
			Name:   "set_port",
			Params: []*p4.Field{{Name: "port", Bits: 16}},
			Body:   []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: p4.FR("port")}},
		},
		&p4.ActionDecl{
			Name: "mark_drop",
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "drop_flag"), RHS: &p4.IntLit{Val: 1, Bits: 1}}},
		},
	)
	fwdActions := []string{"set_port", "mark_drop"}
	if g.ecmp {
		ctl.Actions = append(ctl.Actions,
			&p4.ActionDecl{
				Name:   "set_ecmp_group",
				Params: []*p4.Field{{Name: "gid", Bits: 16}},
				Body:   []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "ecmp_grp"), RHS: p4.FR("gid")}},
			},
		)
		ctl.Hashes = append(ctl.Hashes,
			&p4.HashDecl{Name: "ecmp_hash", Algo: "crc16", Bits: 16},
		)
		fwdActions = append(fwdActions, "set_ecmp_group")
	}
	ctl.Tables = append(ctl.Tables,
		&p4.Table{
			Name:    "netcl_fwd",
			Keys:    []*p4.TableKey{{Expr: p4.FR("meta", "nexthop"), Match: p4.MatchExact}},
			Actions: fwdActions,
			Default: &p4.ActionCall{Name: "mark_drop"},
			Size:    256,
		},
	)
	if g.ecmp {
		ctl.Tables = append(ctl.Tables,
			&p4.Table{
				Name: "netcl_ecmp",
				Keys: []*p4.TableKey{
					{Expr: p4.FR("meta", "ecmp_grp"), Match: p4.MatchExact},
					{Expr: p4.FR("meta", "ecmp_bkt"), Match: p4.MatchExact},
				},
				Actions: []string{"set_port", "mark_drop"},
				Default: &p4.ActionCall{Name: "mark_drop"},
				Size:    256,
			},
		)
	}
	ctl.Tables = append(ctl.Tables,
		&p4.Table{
			Name:    "l2_fwd",
			Keys:    []*p4.TableKey{{Expr: p4.FR("hdr", "ethernet", "dst_addr"), Match: p4.MatchExact}},
			Actions: []string{"set_port", "mark_drop"},
			Default: &p4.ActionCall{Name: "mark_drop"},
			Size:    1024,
		},
	)

	// NetCL runtime: dispatch + kernels + epilogue, then forwarding.
	isNetCL := &p4.CallExpr{Recv: "hdr.netcl", Method: "isValid"}
	toMe := &p4.Bin{
		Op: "||",
		X: &p4.Bin{Op: "==", X: p4.FR("hdr", "netcl", "to"),
			Y: &p4.IntLit{Val: uint64(g.mod.DeviceID), Bits: 16}},
		Y: &p4.Bin{Op: "==", X: p4.FR("hdr", "netcl", "to"),
			Y: &p4.IntLit{Val: wire.AnyDevice, Bits: 16}},
	}

	var computeBody []p4.Stmt
	computeBody = append(computeBody, &p4.Comment{Text: "NetCL device runtime: computation dispatch"})
	// Defaults, overridden by the specialized per-action updates each
	// kernel exit emits: an unknown computation id behaves as pass().
	computeBody = append(computeBody,
		&p4.Assign{LHS: p4.FR("hdr", "netcl", "act"), RHS: &p4.IntLit{Val: wire.ActPass, Bits: 8}},
		&p4.Assign{LHS: p4.FR("hdr", "netcl", "to"), RHS: &p4.IntLit{Val: wire.None, Bits: 16}},
		&p4.Assign{LHS: p4.FR("meta", "nexthop"), RHS: p4.FR("hdr", "netcl", "dst")},
	)
	dispatch := g.dispatchKernels()
	computeBody = append(computeBody, dispatch...)
	computeBody = append(computeBody,
		&p4.Comment{Text: "NetCL device runtime: record this device as the previous hop"},
		&p4.Assign{LHS: p4.FR("hdr", "netcl", "from"),
			RHS: &p4.IntLit{Val: uint64(g.mod.DeviceID), Bits: 16}},
	)

	transitBody := []p4.Stmt{
		// A message not addressed to this device is a no-op in transit.
		&p4.If{
			Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "netcl", "to"), Y: &p4.IntLit{Val: wire.None, Bits: 16}},
			Then: []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "nexthop"), RHS: p4.FR("hdr", "netcl", "dst")}},
			Else: []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "nexthop"), RHS: p4.FR("hdr", "netcl", "to")}},
		},
	}

	fwdApply := []p4.Stmt{&p4.ApplyTable{Table: "netcl_fwd"}}
	if g.ecmp {
		// When netcl_fwd resolved to an ECMP group, spread by flow hash
		// over (src, dst): the pair is invariant along the path (only
		// from/to/act mutate in transit), so every hop picks the same
		// bucket for a flow.
		fwdApply = append(fwdApply, &p4.If{
			Cond: &p4.Bin{Op: "!=", X: p4.FR("meta", "ecmp_grp"), Y: &p4.IntLit{Val: 0, Bits: 16}},
			Then: []p4.Stmt{
				&p4.Assign{
					LHS: p4.FR("meta", "ecmp_bkt"),
					RHS: &p4.Bin{
						Op: "&",
						X: &p4.CallExpr{Recv: "ecmp_hash", Method: "get", Args: []p4.Expr{
							p4.FR("hdr", "netcl", "src"), p4.FR("hdr", "netcl", "dst"),
						}},
						Y: &p4.IntLit{Val: wire.ECMPBuckets - 1, Bits: 16},
					},
				},
				&p4.ApplyTable{Table: "netcl_ecmp"},
			},
		})
	}

	ctl.Apply = []p4.Stmt{
		&p4.If{
			Cond: isNetCL,
			Then: []p4.Stmt{
				&p4.If{Cond: toMe, Then: computeBody, Else: transitBody},
				&p4.If{
					Cond: &p4.Bin{Op: "==", X: p4.FR("meta", "drop_flag"), Y: &p4.IntLit{Val: 0, Bits: 1}},
					Then: []p4.Stmt{
						&p4.If{
							Cond: &p4.Bin{Op: "==", X: p4.FR("meta", "mcast_grp"), Y: &p4.IntLit{Val: 0, Bits: 16}},
							Then: fwdApply,
						},
					},
				},
			},
			Else: []p4.Stmt{&p4.ApplyTable{Table: "l2_fwd"}},
		},
	}
}

// dispatchKernels emits the top-level computation switch (§VI-B: "a
// top-level switch statement branching on a message's computation ID").
func (g *generator) dispatchKernels() []p4.Stmt {
	var funcs []*ir.Func
	funcs = append(funcs, g.mod.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Comp < funcs[j].Comp })

	var out []p4.Stmt
	cur := &out
	for _, f := range funcs {
		body := g.genKernel(f)
		iff := &p4.If{
			Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "netcl", "comp"),
				Y: &p4.IntLit{Val: uint64(f.Comp), Bits: 8}},
			Then: body,
		}
		*cur = append(*cur, iff)
		cur = &iff.Else
	}
	return out
}
