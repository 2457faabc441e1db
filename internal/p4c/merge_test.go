package p4c

import (
	"fmt"
	"testing"

	"netcl/internal/p4"
)

// The branch merge in fitter.stmt: after an if, each field's last
// writer is the then-branch's stage when that is greater than the
// else-branch's, where a field the else-branch does not know counts as
// stage 0. These tests pin that rule through whole Reports.

func x() p4.Expr { return p4.FR("hdr", "h", "x") }

func inc(e p4.Expr) p4.Expr { return &p4.Bin{Op: "+", X: e, Y: &p4.IntLit{Val: 1, Bits: 32}} }

func set(name string, rhs p4.Expr) p4.Stmt { return &p4.Assign{LHS: p4.FR(name), RHS: rhs} }

func cond(v uint64) p4.Expr {
	return &p4.Bin{Op: "==", X: x(), Y: &p4.IntLit{Val: v, Bits: 32}}
}

// mergeProg is a one-header TNA program whose ingress applies body.
func mergeProg(locals []string, body ...p4.Stmt) *p4.Program {
	prog := chainProg(0)
	for _, l := range locals {
		prog.Ingress.Locals = append(prog.Ingress.Locals, &p4.Field{Name: l, Bits: 32})
	}
	prog.Ingress.Apply = body
	return prog
}

func checkReport(t *testing.T, prog *p4.Program, want string) {
	t.Helper()
	got := fmt.Sprintf("%+v", *Fit(prog, Tofino1()))
	if got != want {
		t.Errorf("report:\n got %s\nwant %s", got, want)
	}
}

// TestMergeThenOnlyStageZero: a field written only in the then-branch,
// at stage 0, is not known after the if, so its reader lands in
// stage 0 rather than stage 1.
func TestMergeThenOnlyStageZero(t *testing.T) {
	prog := mergeProg([]string{"a", "b"},
		&p4.If{Cond: cond(1), Then: []p4.Stmt{set("a", x())}},
		set("b", inc(p4.FR("a"))),
	)
	checkReport(t, prog, "{Fits:true Reason: StagesUsed:1 PerStage:[{SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:2 Tables:[] Registers:[] Ops:[a b]}] SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:2 SRAMPct:0 TCAMPct:0 SALUPct:0 VLIWPct:0.5208333333333334 WorstSRAMPct:0 WorstTCAMPct:0 WorstSALUPct:0 WorstVLIWPct:6.25 PHVBitsUsed:96 PHVPct:2.34375 LatencyCycles:142 LatencyNs:116.39344262295083}")
}

// TestMergeBothBranchesDifferentStages: the then-branch writes a at
// stage 1, the else-branch at stage 0, so its reader goes to stage 2.
// A field the incoming state had at stage 2 and only the else-branch
// rewrote at stage 0 keeps stage 2 (the then-branch still sees it).
func TestMergeBothBranchesDifferentStages(t *testing.T) {
	prog := mergeProg([]string{"a", "b", "c0", "c1", "d", "e"},
		set("c0", inc(x())),
		set("c1", inc(p4.FR("c0"))),
		set("d", inc(p4.FR("c1"))),
		&p4.If{Cond: cond(2),
			Then: []p4.Stmt{set("a", inc(x())), set("a", inc(p4.FR("a")))},
			Else: []p4.Stmt{set("a", x()), set("d", x())},
		},
		set("b", inc(p4.FR("a"))),
		set("e", inc(p4.FR("d"))),
	)
	checkReport(t, prog, "{Fits:true Reason: StagesUsed:4 PerStage:[{SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:4 Tables:[] Registers:[] Ops:[c0 a a d]} {SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:2 Tables:[] Registers:[] Ops:[c1 a]} {SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:2 Tables:[] Registers:[] Ops:[d b]} {SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:1 Tables:[] Registers:[] Ops:[e]}] SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:9 SRAMPct:0 TCAMPct:0 SALUPct:0 VLIWPct:2.34375 WorstSRAMPct:0 WorstTCAMPct:0 WorstSALUPct:0 WorstVLIWPct:12.5 PHVBitsUsed:224 PHVPct:5.46875 LatencyCycles:208 LatencyNs:170.49180327868854}")
}

// TestMergeNestedThreeDeep: ifs nested three deep, each level writing
// in one or both branches, merge level by level.
func TestMergeNestedThreeDeep(t *testing.T) {
	prog := mergeProg([]string{"a", "b", "c", "d", "e"},
		&p4.If{Cond: cond(1),
			Then: []p4.Stmt{
				set("a", inc(x())),
				&p4.If{Cond: cond(2),
					Then: []p4.Stmt{
						set("b", inc(p4.FR("a"))),
						&p4.If{Cond: cond(3),
							Then: []p4.Stmt{set("c", inc(p4.FR("b")))},
							Else: []p4.Stmt{set("a", x()), set("d", x())},
						},
					},
					Else: []p4.Stmt{set("c", x())},
				},
			},
			Else: []p4.Stmt{set("b", x()), set("e", inc(x()))},
		},
		set("d", inc(p4.FR("c"))),
		set("e", inc(p4.FR("a"))),
		set("a", inc(p4.FR("b"))),
		set("b", inc(p4.FR("e"))),
	)
	checkReport(t, prog, "{Fits:true Reason: StagesUsed:4 PerStage:[{SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:7 Tables:[] Registers:[] Ops:[a a d c b e e]} {SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:2 Tables:[] Registers:[] Ops:[b b]} {SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:2 Tables:[] Registers:[] Ops:[c a]} {SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:1 Tables:[] Registers:[] Ops:[d]}] SRAMBlocks:0 TCAMBlocks:0 SALUs:0 VLIWSlots:12 SRAMPct:0 TCAMPct:0 SALUPct:0 VLIWPct:3.125 WorstSRAMPct:0 WorstTCAMPct:0 WorstSALUPct:0 WorstVLIWPct:21.875 PHVBitsUsed:192 PHVPct:4.6875 LatencyCycles:208 LatencyNs:170.49180327868854}")
}
