package runtime

import (
	"fmt"

	"netcl/internal/ir"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
)

// DeviceConnection mirrors ncl::device_connection: a control-plane
// handle through which host code reads and writes _managed_ memory by
// NetCL-level name and indices (§V-B), without vendor-specific APIs
// (requirement R6). It resolves names against the compiled module's
// memory layout, transparently handling compiler memory partitioning
// (cms[3][65536] → reg_cms__0..2).
type DeviceConnection struct {
	CP   p4rt.Client
	Mems []*ir.MemRef
}

// resolve maps a NetCL memory name plus indices to a register name and
// flat element index.
func (c *DeviceConnection) resolve(name string, idxs []int) (string, *ir.MemRef, int, error) {
	find := func(n string) *ir.MemRef {
		for _, m := range c.Mems {
			if m.Name == n {
				return m
			}
		}
		return nil
	}
	mem := find(name)
	rest := idxs
	if mem == nil && len(idxs) > 0 {
		// Partitioned: the outer dimension became a name suffix.
		mem = find(fmt.Sprintf("%s__%d", name, idxs[0]))
		rest = idxs[1:]
	}
	if mem == nil {
		return "", nil, 0, fmt.Errorf("managed: no memory %q on this device", name)
	}
	if len(rest) != len(mem.Dims) {
		return "", nil, 0, fmt.Errorf("managed: %q needs %d indices, got %d", name, len(mem.Dims), len(rest))
	}
	flat := 0
	for i, ix := range rest {
		if ix < 0 || ix >= mem.Dims[i] {
			return "", nil, 0, fmt.Errorf("managed: index %d out of range [0,%d) for %q", ix, mem.Dims[i], name)
		}
		stride := 1
		for _, d := range mem.Dims[i+1:] {
			stride *= d
		}
		flat += ix * stride
	}
	return "reg_" + mem.Name, mem, flat, nil
}

// Registers lists the device registers holding the named memories:
// one for an unpartitioned memory, one per outer index when the
// compiler partitioned it (Agg[4][N] is reg_Agg__0..3 on TNA, one
// reg_Agg on v1model). Bulk state moves — draining a failed switch
// into a standby — address memories by NetCL name through it.
func (c *DeviceConnection) Registers(names ...string) ([]string, error) {
	var regs []string
	for _, name := range names {
		if c.memByName(name) != nil {
			regs = append(regs, "reg_"+name)
			continue
		}
		n := len(regs)
		for i := 0; c.memByName(fmt.Sprintf("%s__%d", name, i)) != nil; i++ {
			regs = append(regs, fmt.Sprintf("reg_%s__%d", name, i))
		}
		if len(regs) == n {
			return nil, fmt.Errorf("managed: no memory %q on this device", name)
		}
	}
	return regs, nil
}

// memByName locates a memory object (following partition suffixes is
// not needed for lookups, which are never partitioned).
func (c *DeviceConnection) memByName(name string) *ir.MemRef {
	for _, m := range c.Mems {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// ManagedWrite writes one element of managed memory
// (ncl::managed_write).
func (c *DeviceConnection) ManagedWrite(name string, idxs []int, v uint64) error {
	reg, mem, flat, err := c.resolve(name, idxs)
	if err != nil {
		return err
	}
	if !mem.Managed {
		return fmt.Errorf("managed: memory %q is _net_ only; hosts cannot write it", name)
	}
	_, err = c.CP.Write(p4rt.NewWriteBatch().RegisterWrite(reg, flat, v))
	return err
}

// ManagedRead reads one element of managed memory (ncl::managed_read).
func (c *DeviceConnection) ManagedRead(name string, idxs []int) (uint64, error) {
	reg, _, flat, err := c.resolve(name, idxs)
	if err != nil {
		return 0, err
	}
	return c.CP.RegisterRead(reg, flat)
}

// lookupEntry builds the replace pair (delete tuple + fresh entry) of
// one lookup-memory binding.
func lookupEntry(mem *ir.MemRef, key, val uint64) *p4.Entry {
	table := "lu_" + mem.Name
	e := &p4.Entry{Keys: []p4.KeyValue{{Value: key, PrefixLen: -1}}}
	if mem.LKind == ir.LookupSet {
		e.Action = &p4.ActionCall{Name: table + "_hit"}
	} else {
		e.Action = &p4.ActionCall{Name: table + "_hit", Args: []uint64{val}}
	}
	return e
}

// lookupMem validates that name is writable managed lookup memory.
func (c *DeviceConnection) lookupMem(name string) (*ir.MemRef, error) {
	mem := c.memByName(name)
	if mem == nil || !mem.IsLookup() {
		return nil, fmt.Errorf("managed: %q is not lookup memory", name)
	}
	if !mem.Managed {
		return nil, fmt.Errorf("managed: lookup memory %q is const (not _managed_)", name)
	}
	return mem, nil
}

// LookupInsert adds (or replaces) an entry in managed lookup memory.
// For kv maps val is the mapped value; for sets it is ignored. The
// delete-then-insert pair rides in one batch, so a concurrent packet
// never observes the key unbound mid-replace.
func (c *DeviceConnection) LookupInsert(name string, key, val uint64) error {
	mem, err := c.lookupMem(name)
	if err != nil {
		return err
	}
	table := "lu_" + name
	b := p4rt.NewWriteBatch().Delete(table, key).Insert(table, lookupEntry(mem, key, val))
	_, err = c.CP.Write(b)
	return err
}

// LookupDelete removes entries matching key from managed lookup
// memory, returning how many were removed.
func (c *DeviceConnection) LookupDelete(name string, key uint64) (int, error) {
	mem := c.memByName(name)
	if mem == nil || !mem.IsLookup() || !mem.Managed {
		return 0, fmt.Errorf("managed: %q is not managed lookup memory", name)
	}
	res, err := c.CP.Write(p4rt.NewWriteBatch().Delete("lu_"+name, key))
	if err != nil {
		return 0, err
	}
	return res.Removed[0], nil
}

// ManagedTxn accumulates managed-memory mutations — register writes,
// lookup inserts and deletes — into one transactional batch, applied
// all-or-nothing by Commit. Repeated writes to the same register cell
// write-combine (the last value wins), collapsing `_managed_` mirror
// traffic to one op per touched cell. Resolution errors are sticky:
// they surface at Commit and nothing is sent.
type ManagedTxn struct {
	c   *DeviceConnection
	b   *p4rt.WriteBatch
	err error
}

// Txn starts an empty managed-memory transaction.
func (c *DeviceConnection) Txn() *ManagedTxn {
	return &ManagedTxn{c: c, b: p4rt.NewWriteBatch()}
}

// Write stages one managed-memory element write (ManagedWrite).
func (t *ManagedTxn) Write(name string, idxs []int, v uint64) *ManagedTxn {
	if t.err != nil {
		return t
	}
	reg, mem, flat, err := t.c.resolve(name, idxs)
	if err != nil {
		t.err = err
		return t
	}
	if !mem.Managed {
		t.err = fmt.Errorf("managed: memory %q is _net_ only; hosts cannot write it", name)
		return t
	}
	t.b.RegisterWrite(reg, flat, v)
	return t
}

// LookupInsert stages a lookup-memory replace (LookupInsert).
func (t *ManagedTxn) LookupInsert(name string, key, val uint64) *ManagedTxn {
	if t.err != nil {
		return t
	}
	mem, err := t.c.lookupMem(name)
	if err != nil {
		t.err = err
		return t
	}
	table := "lu_" + name
	t.b.Delete(table, key).Insert(table, lookupEntry(mem, key, val))
	return t
}

// LookupDelete stages a lookup-memory delete.
func (t *ManagedTxn) LookupDelete(name string, key uint64) *ManagedTxn {
	if t.err != nil {
		return t
	}
	if _, err := t.c.lookupMem(name); err != nil {
		t.err = err
		return t
	}
	t.b.Delete("lu_"+name, key)
	return t
}

// Len reports the number of staged ops after write-combining.
func (t *ManagedTxn) Len() int { return t.b.Len() }

// Commit applies the transaction in one batch. On error nothing took
// effect on the device.
func (t *ManagedTxn) Commit() error {
	if t.err != nil {
		return t.err
	}
	_, err := t.c.CP.Write(t.b)
	return err
}
