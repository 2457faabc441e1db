package bmv2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"netcl/internal/p4"
)

// flowProg is pairProg with n distinct random flows in table ta, the
// shape of a controller-populated exact flow table.
func flowProg(n int) *p4.Program {
	pp := pairProg()
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint64]bool, n)
	ents := make([]*p4.Entry, 0, n)
	for len(ents) < n {
		k := uint64(rng.Uint32())
		if !seen[k] {
			seen[k] = true
			ents = append(ents, entry("set_o1", uint64(len(ents)), 0, kv(k)))
		}
	}
	pp.Ingress.TableByName("ta").Entries = ents
	return pp
}

// TestNewExactFootprint: building a switch over a 100 000-entry exact
// table costs a bounded number of heap objects and bytes beyond the
// entries themselves.
func TestNewExactFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	pp := flowProg(100_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sw := New(pp)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(sw)
	t.Logf("New: %d allocations, %.1f MB retained", allocs, float64(retained)/1e6)
	if sw.CompileErr() != nil {
		t.Fatal(sw.CompileErr())
	}
	if allocs > 10_000 {
		t.Errorf("New made %d allocations, want at most 10 000", allocs)
	}
	if retained > 10_000_000 {
		t.Errorf("New retained %d bytes, want at most 10 MB", retained)
	}
}

// BenchmarkWriteExact: one ctrl_churn-shaped batch on the 100 000-entry
// flow table: 19 inserts of fresh flows, 19 deletes of live ones and
// 18 modifies, pre-built, then the same batch's inverse so that the
// table returns to its starting set after every pair of iterations.
// The target is at most 50 KB/op: each op path-copies the trie nodes
// it passes, the full ones as 8-byte child pointers (DESIGN.md §7).
func BenchmarkWriteExact(b *testing.B) {
	pp := flowProg(100_000)
	sw := New(pp)
	live := pp.Ingress.TableByName("ta").Entries
	fwd, back := NewWriteBatch(), NewWriteBatch()
	for i := 0; i < 19; i++ {
		k := uint64(1)<<32 + uint64(i) // outside the uint32 flow keys
		fwd.Insert("ta", entry("set_o1", 1, 0, kv(k)))
		back.Delete("ta", k)
		victim := live[i]
		fwd.Delete("ta", victim.Keys[0].Value)
		back.Insert("ta", victim)
	}
	for i := 19; i < 37; i++ {
		k := live[i].Keys[0].Value
		fwd.Modify("ta", entry("set_o1", 7, 0, kv(k)))
		back.Modify("ta", live[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb := fwd
		if i&1 == 1 {
			wb = back
		}
		if _, err := sw.Write(wb); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStoreHoldsNoPointers: an entry record and a trie leaf's reference
// to it hold nothing the collector must trace, and no bmv2 type
// reachable from a published generation or from the entry store holds
// a *p4.Entry (the caller's memory).
func TestStoreHoldsNoPointers(t *testing.T) {
	var flat func(typ reflect.Type) bool
	flat = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			return false
		case reflect.Array:
			return flat(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !flat(typ.Field(i).Type) {
					return false
				}
			}
		}
		return true
	}
	leaf, _ := reflect.TypeOf(pchild{}).FieldByName("rec")
	for _, typ := range []reflect.Type{reflect.TypeOf(erec{}), leaf.Type} {
		if !flat(typ) {
			t.Errorf("%v holds a pointer, slice, map, string or interface", typ)
		}
	}

	pkg, entryType := reflect.TypeOf(erec{}).PkgPath(), reflect.TypeOf(p4.Entry{})
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ == entryType {
			t.Errorf("%s holds a p4.Entry", path)
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(typ.Elem(), path)
		case reflect.Map:
			walk(typ.Key(), path)
			walk(typ.Elem(), path)
		case reflect.Struct:
			if typ.PkgPath() == pkg {
				for i := 0; i < typ.NumField(); i++ {
					f := typ.Field(i)
					walk(f.Type, path+"."+f.Name)
				}
			}
		}
	}
	walk(reflect.TypeOf(generation{}), "generation")
	walk(reflect.TypeOf(entrySet{}), "entrySet")
}

// TestBatchAtomicityChurn: a writer slides a window of keys through an
// exact table and a ternary one in lockstep — every batch inserts two
// keys into each and deletes two, so the arenas grow and compact — and
// every fourth batch is refused after inserting poison, so its rollback
// truncates them. Readers probe the whole key ring in one burst, on one
// pinned generation: every packet must see both tables agree, no
// poison, and every burst exactly the window — never a half batch.
func TestBatchAtomicityChurn(t *testing.T) {
	// One burst pins one generation, so the ring is one burst long.
	const ring, window, poison = MaxBurst, 12, 0xDEAD
	pp := pairProg()
	pp.Ingress.TableByName("tb").Keys[0].Match = p4.MatchTernary
	sw := New(pp)
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	insert := func(b *WriteBatch, k, v uint64) {
		b.Insert("ta", entry("set_o1", v, 0, kv(k)))
		b.Insert("tb", entry("set_o2", v, 0, p4.KeyValue{Value: k, Mask: 0xFFFF_FFFF}))
	}
	seed := NewWriteBatch()
	for k := uint64(0); k < window; k++ {
		insert(seed, k, 1)
	}
	if _, err := sw.Write(seed); err != nil {
		t.Fatal(err)
	}

	gens := 1200
	if testing.Short() {
		gens = 300
	}
	done := make(chan struct{})
	var writerErr error
	compactions, truncations := 0, 0
	go func() {
		defer close(done)
		ta, next := sw.entries["ta"], 0 // next: the window's next key, less window
		for g := 1; g <= gens; g++ {
			n := len(ta.recs)
			if g%4 == 0 {
				b := NewWriteBatch()
				insert(b, uint64(2*g)%ring, poison)
				b.Modify("ta", entry("set_o1", poison, 0, kv(ring))) // no such key: refused
				if _, err := sw.Write(b); err == nil {
					writerErr = errors.New("a batch modifying a missing key committed")
					return
				}
				if len(ta.recs) != n {
					writerErr = fmt.Errorf("refused batch left %d records, want %d", len(ta.recs), n)
					return
				}
				truncations++
				continue
			}
			b := NewWriteBatch()
			for j := 0; j < 2; j++ {
				k := uint64(window + next)
				insert(b, k%ring, uint64(g+1))
				b.Delete("ta", (k-window)%ring)
				b.Delete("tb", (k-window)%ring)
				next++
			}
			if _, err := sw.Write(b); err != nil {
				writerErr = err
				return
			}
			if len(ta.recs) < n {
				compactions++
			}
		}
	}()

	pkts := make([][]byte, ring)
	for k := range pkts {
		pkts[k] = []byte{0, 0, 0, byte(k), 0, 0, 0, 0, 0, 0, 0, 0}
	}
	var wg sync.WaitGroup
	var bad atomic.Value
	var bursts atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ports, res, errs := make([]int, ring), make([]Result, ring), make([]error, ring)
			for {
				select {
				case <-done:
					return
				default:
				}
				sw.ProcessBurst(pkts, ports, res, errs)
				bursts.Add(1)
				hits := 0
				for k := range res {
					if errs[k] != nil {
						bad.Store(errs[k].Error())
						return
					}
					o1 := binary.BigEndian.Uint32(res[k].Data[4:8])
					o2 := binary.BigEndian.Uint32(res[k].Data[8:12])
					if o1 != o2 || o1 == poison {
						bad.Store(fmt.Sprintf("key %d: o1=%d o2=%d", k, o1, o2))
						return
					}
					if o1 != 0 {
						hits++
					}
				}
				if hits != window {
					bad.Store(fmt.Sprintf("a burst saw %d live keys, want %d", hits, window))
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	if msg := bad.Load(); msg != nil {
		t.Fatalf("reader: %v", msg)
	}
	t.Logf("%d compactions, %d truncations, %d bursts", compactions, truncations, bursts.Load())
	if compactions == 0 || truncations == 0 || bursts.Load() == 0 {
		t.Fatal("the churn missed a compaction, a truncation or a concurrent burst")
	}
	if got := len(sw.Entries("ta")); got != window {
		t.Fatalf("%d entries left in ta, want %d", got, window)
	}
}
