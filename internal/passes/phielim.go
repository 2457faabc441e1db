package passes

import (
	"netcl/internal/ir"
)

// PhiElim demotes φ-nodes to memory: each φ gets a fresh local
// variable (alloca), a store before the terminator of every incoming
// block, and a load at the φ's position (§VI-B: "we eliminate φ-nodes
// by introducing a fresh variable for each"). The resulting allocas
// become plain P4 local variables in code generation.
func PhiElim(f *ir.Func) int {
	entry := f.Entry()
	if entry == nil {
		return 0
	}
	repl := map[ir.Value]ir.Value{}
	for _, b := range f.Blocks {
		for _, phi := range append([]*ir.Instr(nil), b.Instrs...) {
			if phi.Op != ir.OpPhi {
				continue
			}
			name := phi.Name
			if name == "" {
				name = "phi"
			}
			al := &ir.Instr{Op: ir.OpAlloca, Ty: phi.Ty, Elem: phi.Ty, Count: 1, Name: name, PhiVar: true}
			prependInstr(entry, al)
			for k, in := range phi.In {
				st := &ir.Instr{
					Op:   ir.OpStore,
					Args: []ir.Value{al, ir.ConstOf(ir.U32, 0), phi.Args[k]},
				}
				in.InsertBeforeTerm(st)
			}
			ld := &ir.Instr{Op: ir.OpLoad, Ty: phi.Ty, Args: []ir.Value{al, ir.ConstOf(ir.U32, 0)}, Name: name}
			// The load takes the φ's slot.
			replaceInPlace(b, phi, ld)
			repl[phi] = ld
		}
	}
	f.ReplaceUses(repl)
	return len(repl)
}
