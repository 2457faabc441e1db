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
// copies each touched node once, not once per update. A full build
// (pbuild) lays the whole trie out from its sorted leaves in slabs.
// Tokens are dropped when the root is published, freezing the nodes.

import "math/bits"

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

// pchild is one slot of a node: an interior node, or (n == nil) a leaf
// naming the record its tuple is bound to. The tuple itself is read
// from the record.
type pchild struct {
	n   *pnode
	rec int32
}

// pnode is an interior trie node: a 64-bit occupancy bitmap plus a
// dense child array (popcount indexing).
type pnode struct {
	bitmap uint64
	kids   []pchild
	owner  *powner // mutation batch that may still edit this node
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

// pget returns the record bound to k's tuple, or -1.
func pget(n *pnode, k *pkey, ar *arena) int32 {
	for lvl := uint(0); n != nil; lvl++ {
		bit := uint64(1) << k.chunk(lvl)
		if n.bitmap&bit == 0 {
			return -1
		}
		c := &n.kids[bits.OnesCount64(n.bitmap&(bit-1))]
		if c.n == nil {
			if ar.tuple(c.rec) == k.t {
				return c.rec
			}
			return -1
		}
		n = c.n
	}
	return -1
}

// psplit pushes two leaves with distinct keys down until their paths
// diverge, building the intermediate single-child nodes.
func psplit(a pchild, ak *pkey, b pchild, bk *pkey, lvl uint, o *powner) *pnode {
	ai, bi := ak.chunk(lvl), bk.chunk(lvl)
	if ai == bi {
		return &pnode{bitmap: 1 << ai, kids: []pchild{{n: psplit(a, ak, b, bk, lvl+1, o)}}, owner: o}
	}
	if ai > bi {
		a, b, ai, bi = b, a, bi, ai
	}
	return &pnode{bitmap: 1<<ai | 1<<bi, kids: []pchild{a, b}, owner: o}
}

// kidsWith copies the child array with slot i replaced.
func kidsWith(kids []pchild, i int, c pchild) []pchild {
	out := make([]pchild, len(kids))
	copy(out, kids)
	out[i] = c
	return out
}

// setKid replaces slot i, in place when n is owned by o.
func setKid(n *pnode, i int, c pchild, o *powner) *pnode {
	if o != nil && n.owner == o {
		n.kids[i] = c
		return n
	}
	return &pnode{bitmap: n.bitmap, kids: kidsWith(n.kids, i, c), owner: o}
}

// addKid inserts a new slot for bit at position i, in place when n is
// owned by o.
func addKid(n *pnode, bit uint64, i int, c pchild, o *powner) *pnode {
	if o != nil && n.owner == o {
		n.kids = append(n.kids, pchild{})
		copy(n.kids[i+1:], n.kids[i:])
		n.kids[i] = c
		n.bitmap |= bit
		return n
	}
	kids := make([]pchild, len(n.kids)+1)
	copy(kids, n.kids[:i])
	kids[i] = c
	copy(kids[i+1:], n.kids[i:])
	return &pnode{bitmap: n.bitmap | bit, kids: kids, owner: o}
}

// pinsert binds k's tuple to record rec under token o, path-copying
// nodes not owned by o. With replace=false an existing binding wins
// (the exact matcher's first-inserted-wins rule) and the original root
// is returned with changed=false; with replace=true the binding is
// overwritten. ar holds every record the trie names.
func pinsert(n *pnode, lvl uint, k *pkey, rec int32, replace bool, o *powner, ar *arena) (root *pnode, changed bool) {
	bit := uint64(1) << k.chunk(lvl)
	if n == nil {
		return &pnode{bitmap: bit, kids: []pchild{{rec: rec}}, owner: o}, true
	}
	i := bits.OnesCount64(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		return addKid(n, bit, i, pchild{rec: rec}, o), true
	}
	c := n.kids[i]
	if c.n != nil {
		sub, changed := pinsert(c.n, lvl+1, k, rec, replace, o, ar)
		if !changed {
			return n, false
		}
		return setKid(n, i, pchild{n: sub}, o), true
	}
	ck := keyOf(ar.tuple(c.rec))
	if ck.t == k.t {
		if !replace {
			return n, false
		}
		return setKid(n, i, pchild{rec: rec}, o), true
	}
	return setKid(n, i, pchild{n: psplit(c, &ck, pchild{rec: rec}, k, lvl+1, o)}, o), true
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
	if n.bitmap&bit == 0 {
		return n, false
	}
	i := bits.OnesCount64(n.bitmap & (bit - 1))
	c := n.kids[i]
	if c.n == nil {
		if ar.tuple(c.rec) != k.t {
			return n, false
		}
		return pdrop(n, bit, i, o), true
	}
	sub, removed := pdelete(c.n, lvl+1, k, o, ar)
	if !removed {
		return n, false
	}
	if sub == nil {
		return pdrop(n, bit, i, o), true
	}
	return setKid(n, i, pchild{n: sub}, o), true
}

// pdrop removes child slot i (in place when owned by o); an emptied
// node becomes nil so parents collapse the path.
func pdrop(n *pnode, bit uint64, i int, o *powner) *pnode {
	if len(n.kids) == 1 {
		return nil
	}
	if o != nil && n.owner == o {
		copy(n.kids[i:], n.kids[i+1:])
		n.kids = n.kids[:len(n.kids)-1]
		n.bitmap &^= bit
		return n
	}
	kids := make([]pchild, len(n.kids)-1)
	copy(kids, n.kids[:i])
	copy(kids[i:], n.kids[i+1:])
	return &pnode{bitmap: n.bitmap &^ bit, kids: kids, owner: o}
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
	kids  []pchild
}

func (s *pslab) node(kids int) *pnode {
	if len(s.nodes) == 0 {
		s.nodes = make([]pnode, 512)
	}
	if len(s.kids) < kids {
		s.kids = make([]pchild, max(kids, 8192))
	}
	n := &s.nodes[0]
	n.kids, s.nodes, s.kids = s.kids[:0:kids], s.nodes[1:], s.kids[kids:]
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
	kids := 1
	for i := 1; i < len(ls); i++ {
		if chunk(ls[i]) != chunk(ls[i-1]) {
			kids++
		}
	}
	n := s.node(kids)
	for i := 0; i < len(ls); {
		c, j := chunk(ls[i]), i+1
		for j < len(ls) && chunk(ls[j]) == c {
			j++
		}
		kid := pchild{rec: ls[i].rec}
		if j-i > 1 {
			kid = pchild{n: pbuild(ls[i:j], lvl+1, ar, s)}
		}
		n.bitmap |= 1 << c
		n.kids = append(n.kids, kid)
		i = j
	}
	return n
}
