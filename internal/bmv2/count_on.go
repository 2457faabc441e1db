//go:build bmv2count

package bmv2

import "expvar"

// Built with -tags bmv2count, exec counts the instructions it
// dispatches (a lane-looped one as one) into the expvar "bmv2.instrs",
// which BenchmarkPacket reports as instrs/op.
const countInstrs = true

var instrsExecuted = expvar.NewInt("bmv2.instrs")

func (m *machine) flushInstrs() {
	instrsExecuted.Add(m.instrs)
	m.instrs = 0
}
