//go:build !bmv2count

package bmv2

const countInstrs = false // exec's counter compiles away (count_on.go)

func (m *machine) flushInstrs() {}
