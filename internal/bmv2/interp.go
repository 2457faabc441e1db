// Package bmv2 executes P4 AST programs on packets, in the spirit of
// the p4lang behavioral model: a software switch that runs any valid
// program of our P4 subset. It serves as the testbed substrate for the
// paper's end-to-end experiments (§VII) — both generated and
// handwritten P4 run on this same switch.
//
// interp.go is the Switch itself: construction, the control plane and
// the three packet entry points. There is one engine — New compiles
// the program to its slot-indexed form (compile.go) and packets run on
// that — so a program the compiler refuses is an error from every
// entry point, not a slower run. The tree-walking interpreter this
// file is named after lives in reference.go, as the oracle tests
// compare the engine against.
package bmv2

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"netcl/internal/p4"
)

// val is a typed interpreter value.
type val struct {
	v    uint64
	bits int
}

func (x val) mask() uint64 {
	if x.bits >= 64 || x.bits <= 0 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(x.bits)) - 1
}

func (x val) wrapped() uint64 { return x.v & x.mask() }

func (x val) signed() int64 {
	u := x.wrapped()
	if x.bits > 0 && x.bits < 64 && u>>(uint(x.bits)-1) != 0 {
		return int64(u | ^x.mask())
	}
	return int64(u)
}

// Switch is an executable P4 switch instance with mutable runtime
// state (registers, table entries, multicast groups).
//
// Concurrency: control-plane table mutations (Write batches) are safe
// to call concurrently with packet processing — they serialize on
// the writer mutex and publish immutable rule-set generations the data
// path reads lock-free (RCU, see table.go and batch.go); a packet
// pins one generation, so a batch is observed all-or-nothing.
// Register cells are plain memory: concurrent packet processing is
// safe only when packets touching the same cell run on the same
// goroutine (the shard-by-flow invariant; see Sharded), and
// control-plane register access against in-flight packets must
// quiesce the data path (Sharded does).
type Switch struct {
	Prog *p4.Program

	// mu is the control-plane writer lock: it serializes mutations of
	// the entry lists and register cells against each other. The data
	// path never takes it.
	mu sync.Mutex

	regs    map[string]*regfile
	entries map[string]*entrySet
	fields  map[string]int // field path -> bits (headers, metadata, locals, params)
	rng     uint64         // updated via CAS: the random extern must stay race-free under sharding

	prog       *cprog // compiled form; nil when compilation was refused
	compileErr error

	// Counters for observability and tests, updated atomically.
	PacketsIn, PacketsOut, PacketsDropped uint64
}

// Result reports the outcome of processing one packet.
type Result struct {
	Data    []byte
	Port    int
	Mcast   int
	Dropped bool
	NoMatch bool // no egress selected
}

// New instantiates a switch for a program.
func New(prog *p4.Program) *Switch {
	s := &Switch{
		Prog:    prog,
		regs:    map[string]*regfile{},
		entries: map[string]*entrySet{},
		fields:  map[string]int{},
		rng:     0x9E3779B97F4A7C15,
	}
	controls := []*p4.Control{prog.Ingress}
	if prog.Egress != nil {
		controls = append(controls, prog.Egress)
	}
	for _, c := range controls {
		for _, r := range c.Registers {
			s.regs[r.Name] = newRegfile(r.Size, r.Bits, r.Init)
		}
		for _, t := range c.Tables {
			es := s.entries[t.Name]
			if es == nil {
				es = &entrySet{}
				s.entries[t.Name] = es
			}
			for _, e := range t.Entries {
				es.insert(e)
			}
		}
		for _, l := range c.Locals {
			s.fields[l.Name] = l.Bits
		}
	}
	for _, h := range prog.Headers {
		for _, f := range h.Fields {
			s.fields["hdr."+h.Name+"."+f.Name] = f.Bits
		}
	}
	for _, f := range prog.Metadata {
		s.fields["meta."+f.Name] = f.Bits
	}
	// Prepare step: compile the program to its slot-indexed form. On
	// refusal (constructs needing dynamic scoping, malformed graphs)
	// the switch keeps its control plane and processes no packets.
	s.prog, s.compileErr = compileProgram(s)
	return s
}

// CompileErr returns the reason compilation was refused, or nil. A
// refused switch answers every Process call with this error.
func (s *Switch) CompileErr() error { return s.compileErr }

// Control plane --------------------------------------------------------

// RegisterRead returns a register cell. Serialized against other
// control-plane calls; concurrent in-flight packets must be quiesced
// by the caller (Sharded.RegisterRead does).
func (s *Switch) RegisterRead(name string, idx int) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rf, ok := s.regs[name]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrNoRegister, name)
	}
	if idx < 0 || idx >= rf.size {
		return 0, fmt.Errorf("register %q index %d %w", name, idx, ErrRegisterRange)
	}
	return rf.load(idx), nil
}

// ReadRegisters returns a snapshot of every cell of one register file:
// the bulk drain used by failover (read the crashed device's pool
// state once, replay it into a standby via one WriteBatch) instead of
// one RegisterRead round trip per cell. Unmaterialized pages read as
// zero, exactly like the data path. Serialized against other
// control-plane calls; concurrent in-flight packets must be quiesced
// by the caller.
func (s *Switch) ReadRegisters(name string) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rf, ok := s.regs[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoRegister, name)
	}
	out := make([]uint64, rf.size)
	for i := range out {
		out[i] = rf.load(i)
	}
	return out, nil
}

// RegisterNames returns the switch's register names in sorted order:
// the enumeration half of a full state drain.
func (s *Switch) RegisterNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.regs))
	for name := range s.regs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RegisterSize returns the number of cells, or -1.
func (s *Switch) RegisterSize(name string) int {
	if rf, ok := s.regs[name]; ok {
		return rf.size
	}
	return -1
}

// InsertEntry adds a runtime table entry as a one-op Write batch and
// returns the op's error without its index. Its only callers are
// bench/calc_udp.go and bench/layers.go; it goes with them (ROADMAP 1(g)).
func (s *Switch) InsertEntry(table string, e *p4.Entry) error {
	_, err := s.Write(NewWriteBatch().Insert(table, e))
	if be, ok := err.(*BatchError); ok {
		return be.Err
	}
	return err
}

// entryKeysEqual reports whether the entry's key values equal the
// tuple exactly (same arity, all values equal).
func entryKeysEqual(e *p4.Entry, keyVals []uint64) bool {
	if len(keyVals) == 0 || len(e.Keys) != len(keyVals) {
		return false
	}
	for i, kv := range keyVals {
		if e.Keys[i].Value != kv {
			return false
		}
	}
	return true
}

// Entries returns a copy of a table's current entries (live entries
// in insertion order).
func (s *Switch) Entries(table string) []*p4.Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	es := s.entries[table]
	if es == nil {
		return nil
	}
	out := make([]*p4.Entry, 0, es.live)
	for _, e := range es.ents {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// nextRand steps the random-extern LCG with a CAS loop: single-
// threaded runs produce the exact reference sequence, while sharded
// runs stay race-free (cross-shard draw order is load-dependent, like
// hardware RNG externs).
func (s *Switch) nextRand() uint64 {
	for {
		old := atomic.LoadUint64(&s.rng)
		next := old*6364136223846793005 + 1442695040888963407
		if atomic.CompareAndSwapUint64(&s.rng, old, next) {
			return next
		}
	}
}

func (s *Switch) findTable(name string) *p4.Table {
	if t := s.Prog.Ingress.TableByName(name); t != nil {
		return t
	}
	if s.Prog.Egress != nil {
		return s.Prog.Egress.TableByName(name)
	}
	return nil
}

// Packet processing ----------------------------------------------------

// Process runs one packet through parser, ingress, (egress,) deparser.
// inPort is published to the program as meta.ingress_port before
// parsing.
func (s *Switch) Process(data []byte, inPort int) (*Result, error) {
	if s.prog == nil {
		return nil, s.compileErr
	}
	return s.prog.process(data, inPort)
}

// ProcessInto runs one packet like Process but fills a caller-owned
// Result in place, reusing res.Data's capacity for the deparse output
// instead of allocating a fresh buffer per packet. res.Data must not
// alias the input packet (headers are rewritten before the payload is
// copied out of the input). A dropped packet leaves res.Data empty,
// its capacity kept for the next packet; error returns leave res
// unspecified. Semantics and counters otherwise match Process exactly.
func (s *Switch) ProcessInto(data []byte, inPort int, res *Result) error {
	if s.prog == nil {
		return s.compileErr
	}
	return s.prog.processInto(data, inPort, res)
}

// MaxBurst is the largest batch ProcessBurst handles per machine
// checkout; Sharded workers drain up to this many queued jobs per
// channel wakeup.
const MaxBurst = 32

// ProcessBurst runs len(pkts) packets through the pipeline, writing
// outcome i into res[i]/errs[i] (res[i] is zeroed when errs[i] is
// non-nil). ports may be nil (all packets enter on port 0). res and
// errs must be at least len(pkts) long; bursts beyond MaxBurst are
// processed in chunks. A burst shares one machine checkout and one
// rule-set generation pin and folds counter updates into one atomic
// add per counter — per-packet semantics are byte-identical to calling
// Process in a loop. Result slots belong to the caller: reusing the
// slices across bursts is the zero-alloc pattern (see Sharded's worker
// loop).
func (s *Switch) ProcessBurst(pkts [][]byte, ports []int, res []Result, errs []error) {
	if s.prog == nil {
		for i := range pkts {
			res[i], errs[i] = Result{}, s.compileErr
		}
		return
	}
	for len(pkts) > MaxBurst {
		s.prog.processBurst(pkts[:MaxBurst], ports, res[:MaxBurst], errs[:MaxBurst])
		pkts, res, errs = pkts[MaxBurst:], res[MaxBurst:], errs[MaxBurst:]
		if ports != nil {
			ports = ports[MaxBurst:]
		}
	}
	s.prog.processBurst(pkts, ports, res, errs)
}
