package bmv2

// pmap.go is a persistent (path-copying) hash-array-mapped trie from
// exact-match key tuples to entry records. It is the data structure
// behind O(delta) control-plane updates: inserting or deleting one
// entry in a published matcher snapshot copies only the O(log64 n)
// nodes on the key's path and shares everything else with the previous
// snapshot, so a 1-entry update into a million-entry table costs
// microseconds instead of a full-table rebuild. Published roots are
// immutable; every mutation returns a new root. A leaf is a record
// index inline in its parent's child array, not a heap object.
//
// Mutations carry an ownership token (the transient pattern): a node
// created under the active token is private to the mutation batch and
// edited in place, while nodes from published snapshots — owned by an
// older token or none — are copied first. A batch of k updates then
// copies each touched node once, not once per update, and a copy shares
// its child arrays until an edit copies the one it changes. A full
// build (pbuild) lays the whole trie out from its sorted leaves in
// slabs; premap copies one with its leaves renamed. Tokens are dropped
// when the root is published, freezing the nodes.

import (
	"math/bits"
	"slices"
)

// powner is a mutation batch's identity. Must not be zero-sized: two
// distinct tokens have to compare unequal by pointer.
type powner struct{ _ byte }

// pkey is a trie key: an exact-match tuple and its hash. Its path is
// the hash in 6-bit chunks from the top, then each tuple word the same
// way, so two distinct tuples always part (no collision chains) and
// keys sorted by (hash, tuple) are in path order.
type pkey struct {
	h uint64
	t [maxExactKeys]uint64
}

func keyOf(t [maxExactKeys]uint64) pkey { return pkey{phash(t), t} }

// chunk is k's child index at depth lvl: eleven chunks per word, the
// last of them the word's low four bits.
func (k *pkey) chunk(lvl uint) uint64 {
	w := k.h
	if lvl >= 11 {
		w, lvl = k.t[lvl/11-1], lvl%11
	}
	return w << (lvl * 6) >> 58
}

// pchild is what a node binds a chunk to: an interior node, or (n ==
// nil) a leaf naming the record its tuple is bound to. The tuple itself
// is read from the record.
type pchild struct {
	n   *pnode
	rec int32
}

// pnode is an interior trie node. A chunk bound to an interior node has
// its bit in nodes and its child in kids; one bound to a leaf has its
// bit in leaves and its record in recs; both arrays are dense by the
// popcount of their bitmap below the bit. Split this way, a path copy of
// a full node moves 8-byte pointers, and of a node of leaves 4-byte
// record indices.
type pnode struct {
	nodes, leaves uint64
	kids          []*pnode
	recs          []int32
	owner         *powner // mutation batch that may still edit this node
	// ownKids, ownRecs: the owner made the array, so may edit it in place.
	ownKids, ownRecs bool
}

// phash mixes a key tuple into the 64-bit trie hash. Zero-padded
// positions beyond the table's arity hash deterministically, so tuples
// of any arity up to maxExactKeys share one code path.
func phash(t [maxExactKeys]uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range t {
		h = mix64(h ^ v)
	}
	return h
}

// below is the dense index of bit's slot under bitmap m.
func below(m, bit uint64) int { return bits.OnesCount64(m & (bit - 1)) }

// pget returns the record bound to k's tuple, or -1.
func pget(n *pnode, k *pkey, ar *arena) int32 {
	for lvl := uint(0); n != nil; lvl++ {
		bit := uint64(1) << k.chunk(lvl)
		if n.leaves&bit != 0 {
			if rec := n.recs[below(n.leaves, bit)]; ar.tuple(rec) == k.t {
				return rec
			}
			return -1
		}
		if n.nodes&bit == 0 {
			return -1
		}
		n = n.kids[below(n.nodes, bit)]
	}
	return -1
}

// own returns n when o owns it, else a copy that o owns, sharing n's
// child arrays.
func (n *pnode) own(o *powner) *pnode {
	if o != nil && n.owner == o {
		return n
	}
	return &pnode{nodes: n.nodes, leaves: n.leaves, kids: n.kids, recs: n.recs, owner: o}
}

// mine returns s for an in-place edit: s itself when *owned, else a
// copy with room for grow more elements, which is then owned.
func mine[T any](s []T, owned *bool, grow int) []T {
	if !*owned {
		s, *owned = append(make([]T, 0, len(s)+grow), s...), true
	}
	return s
}

// drop unbinds the chunk bit of n, which the caller owns.
func (n *pnode) drop(bit uint64) {
	if n.nodes&bit != 0 {
		i := below(n.nodes, bit)
		n.kids, n.nodes = slices.Delete(mine(n.kids, &n.ownKids, 0), i, i+1), n.nodes&^bit
	} else if n.leaves&bit != 0 {
		i := below(n.leaves, bit)
		n.recs, n.leaves = slices.Delete(mine(n.recs, &n.ownRecs, 0), i, i+1), n.leaves&^bit
	}
}

// put binds the chunk bit of n, which the caller owns, to c.
func (n *pnode) put(bit uint64, c pchild) {
	switch {
	case c.n != nil && n.nodes&bit != 0:
		n.kids = mine(n.kids, &n.ownKids, 0)
		n.kids[below(n.nodes, bit)] = c.n
	case c.n == nil && n.leaves&bit != 0:
		n.recs = mine(n.recs, &n.ownRecs, 0)
		n.recs[below(n.leaves, bit)] = c.rec
	case c.n != nil:
		n.drop(bit)
		n.kids, n.nodes = slices.Insert(mine(n.kids, &n.ownKids, 1), below(n.nodes, bit), c.n), n.nodes|bit
	default:
		n.drop(bit)
		n.recs, n.leaves = slices.Insert(mine(n.recs, &n.ownRecs, 1), below(n.leaves, bit), c.rec), n.leaves|bit
	}
}

// psplit pushes two leaves with distinct keys down until their paths
// diverge, building the intermediate single-child nodes.
func psplit(a pchild, ak *pkey, b pchild, bk *pkey, lvl uint, o *powner) *pnode {
	n := &pnode{owner: o, ownKids: true, ownRecs: true}
	if ai, bi := ak.chunk(lvl), bk.chunk(lvl); ai == bi {
		n.put(1<<ai, pchild{n: psplit(a, ak, b, bk, lvl+1, o)})
	} else {
		n.put(1<<ai, a)
		n.put(1<<bi, b)
	}
	return n
}

// pinsert binds k's tuple to record rec under token o, path-copying
// nodes not owned by o. With replace=false an existing binding wins
// (the exact matcher's first-inserted-wins rule) and the original root
// is returned with changed=false; with replace=true the binding is
// overwritten. ar holds every record the trie names.
func pinsert(n *pnode, lvl uint, k *pkey, rec int32, replace bool, o *powner, ar *arena) (root *pnode, changed bool) {
	bit := uint64(1) << k.chunk(lvl)
	c := pchild{rec: rec}
	switch {
	case n == nil:
		return &pnode{leaves: bit, recs: []int32{rec}, owner: o, ownRecs: true}, true
	case n.nodes&bit != 0:
		sub, changed := pinsert(n.kids[below(n.nodes, bit)], lvl+1, k, rec, replace, o, ar)
		if !changed {
			return n, false
		}
		c = pchild{n: sub}
	case n.leaves&bit != 0:
		old := n.recs[below(n.leaves, bit)]
		ck := keyOf(ar.tuple(old))
		if ck.t == k.t && !replace {
			return n, false
		}
		if ck.t != k.t {
			c = pchild{n: psplit(pchild{rec: old}, &ck, c, k, lvl+1, o)}
		}
	}
	n = n.own(o)
	n.put(bit, c)
	return n, true
}

// pdelete removes the binding for k's tuple under token o, path-copying
// nodes not owned by o. The original root is returned with
// removed=false when the tuple is absent. An emptied subtree collapses
// to its parent's missing bit.
func pdelete(n *pnode, lvl uint, k *pkey, o *powner, ar *arena) (root *pnode, removed bool) {
	if n == nil {
		return nil, false
	}
	bit := uint64(1) << k.chunk(lvl)
	var sub *pnode
	switch {
	case n.leaves&bit != 0:
		if ar.tuple(n.recs[below(n.leaves, bit)]) != k.t {
			return n, false
		}
	case n.nodes&bit != 0:
		if sub, removed = pdelete(n.kids[below(n.nodes, bit)], lvl+1, k, o, ar); !removed {
			return n, false
		}
	default:
		return n, false
	}
	if sub == nil && n.nodes|n.leaves == bit {
		return nil, true
	}
	n = n.own(o)
	if sub == nil {
		n.drop(bit)
	} else {
		n.put(bit, pchild{n: sub})
	}
	return n, true
}

// pent is one leaf of a bulk build: a record and its tuple's hash.
type pent struct {
	h   uint64
	rec int32
}

// pslab carves a bulk build's nodes and child arrays out of shared
// blocks, so that building an n-entry trie costs O(n/block) heap
// objects, not O(n). A child array's capacity is its length: a later
// insert into it copies.
type pslab struct {
	nodes []pnode
	kids  []*pnode
	recs  []int32
}

func (s *pslab) node(kids, recs int) *pnode {
	if len(s.nodes) == 0 {
		s.nodes = make([]pnode, 512)
	}
	if len(s.kids) < kids {
		s.kids = make([]*pnode, max(kids, 4096))
	}
	if len(s.recs) < recs {
		s.recs = make([]int32, max(recs, 8192))
	}
	n := &s.nodes[0]
	n.kids, n.recs = s.kids[:0:kids], s.recs[:0:recs]
	s.nodes, s.kids, s.recs = s.nodes[1:], s.kids[kids:], s.recs[recs:]
	return n
}

// pbuild builds the node at depth lvl over ls: distinct tuples, sorted
// in path order, whose paths agree above lvl.
func pbuild(ls []pent, lvl uint, ar *arena, s *pslab) *pnode {
	chunk := func(l pent) uint64 {
		k := pkey{h: l.h}
		if lvl >= 11 {
			k.t = ar.tuple(l.rec)
		}
		return k.chunk(lvl)
	}
	end := func(i int) int { // the end of ls[i]'s run of one chunk
		j, c := i+1, chunk(ls[i])
		for j < len(ls) && chunk(ls[j]) == c {
			j++
		}
		return j
	}
	var nodes, leaves uint64
	for i, j := 0, 0; i < len(ls); i = j {
		if j = end(i); j-i > 1 {
			nodes |= 1 << chunk(ls[i])
		} else {
			leaves |= 1 << chunk(ls[i])
		}
	}
	n := s.node(bits.OnesCount64(nodes), bits.OnesCount64(leaves))
	n.nodes, n.leaves = nodes, leaves
	for i, j := 0, 0; i < len(ls); i = j {
		if j = end(i); j-i > 1 {
			n.kids = append(n.kids, pbuild(ls[i:j], lvl+1, ar, s))
		} else {
			n.recs = append(n.recs, ls[i].rec)
		}
	}
	return n
}

// premap copies the trie under n into slab s with every leaf's record
// renamed through to, a compaction's old → new index map. Nothing
// under n is written, and the copy is laid out as pbuild lays one out.
func premap(n *pnode, to []int32, s *pslab) *pnode {
	c := s.node(len(n.kids), len(n.recs))
	c.nodes, c.leaves = n.nodes, n.leaves
	for _, k := range n.kids {
		c.kids = append(c.kids, premap(k, to, s))
	}
	for _, r := range n.recs {
		c.recs = append(c.recs, to[r])
	}
	return c
}
