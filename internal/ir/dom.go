package ir

// Dominator analysis using the Cooper-Harvey-Kennedy iterative
// algorithm over reverse postorder, plus dominance frontiers (for
// mem2reg φ placement) and postdominators (for structured codegen).

// RPO returns the blocks of f in reverse postorder from the entry.
// Unreachable blocks are omitted.
func RPO(f *Func) []*Block {
	seen := map[*Block]bool{}
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if f.Entry() != nil {
		dfs(f.Entry())
	}
	out := make([]*Block, len(post))
	for i, b := range post {
		out[len(post)-1-i] = b
	}
	return out
}

// DomTree holds immediate dominators and related queries. Its tables
// are indexed by Block.Index, so it answers for the blocks f had when
// it was built.
type DomTree struct {
	f    *Func
	idom []*Block // nil for an unreachable block
	rpo  []*Block
	// children of each block in the dominator tree, in RPO
	kids [][]*Block
}

// BuildDomTree computes the dominator tree of f.
func BuildDomTree(f *Func) *DomTree {
	n := len(f.Blocks)
	t := &DomTree{f: f, idom: make([]*Block, n), rpo: RPO(f), kids: make([][]*Block, n)}
	if n == 0 {
		return t
	}
	order := make([]int, n)
	for i, b := range t.rpo {
		order[b.Index] = i
	}
	idom := t.idom
	entry := f.Entry()
	idom[entry.Index] = entry
	preds := predMap(f)

	intersect := func(a, b *Block) *Block {
		for a != b {
			for order[a.Index] > order[b.Index] {
				a = idom[a.Index]
			}
			for order[b.Index] > order[a.Index] {
				b = idom[b.Index]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range t.rpo {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range preds[b.Index] {
				if idom[p.Index] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b.Index] != newIdom {
				idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	for _, b := range t.rpo[1:] {
		d := idom[b.Index]
		t.kids[d.Index] = append(t.kids[d.Index], b)
	}
	return t
}

// predMap lists each block's predecessors by Block.Index.
func predMap(f *Func) [][]*Block {
	m := make([][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			m[s.Index] = append(m[s.Index], b)
		}
	}
	return m
}

// IDom returns the immediate dominator of b (entry returns itself).
func (t *DomTree) IDom(b *Block) *Block { return t.idom[b.Index] }

// Dominates reports whether a dominates b (reflexive).
func (t *DomTree) Dominates(a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		d := t.idom[b.Index]
		if d == nil || d == b {
			return false
		}
		b = d
	}
}

// Children returns the dominator-tree children of b.
func (t *DomTree) Children(b *Block) []*Block { return t.kids[b.Index] }

// RPO returns the blocks in reverse postorder.
func (t *DomTree) RPO() []*Block { return t.rpo }

// NCA returns the nearest common ancestor of a and b in the dominator
// tree.
func (t *DomTree) NCA(a, b *Block) *Block {
	depth := func(x *Block) int {
		d := 0
		for t.idom[x.Index] != x {
			x = t.idom[x.Index]
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a = t.idom[a.Index]
		da--
	}
	for db > da {
		b = t.idom[b.Index]
		db--
	}
	for a != b {
		a = t.idom[a.Index]
		b = t.idom[b.Index]
	}
	return a
}

// Frontiers computes the dominance frontier of every block.
func (t *DomTree) Frontiers() map[*Block][]*Block {
	df := map[*Block][]*Block{}
	preds := predMap(t.f)
	for _, b := range t.rpo {
		if len(preds[b.Index]) < 2 {
			continue
		}
		for _, p := range preds[b.Index] {
			runner := p
			for runner != t.idom[b.Index] && runner != nil {
				if !containsBlock(df[runner], b) {
					df[runner] = append(df[runner], b)
				}
				next := t.idom[runner.Index]
				if next == runner {
					break
				}
				runner = next
			}
		}
	}
	return df
}

func containsBlock(s []*Block, b *Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}

// PostDomTree computes immediate postdominators. Because kernels end
// with RetAction terminators there may be multiple exits, a virtual
// exit node (represented by nil) unifies them. NetCL CFGs are small, so
// a direct set-based fixpoint is used for clarity and robustness.
type PostDomTree struct {
	ipdom map[*Block]*Block // nil means the virtual exit
}

// BuildPostDomTree computes the postdominator tree of f, considering
// only blocks reachable from the entry.
func BuildPostDomTree(f *Func) *PostDomTree {
	blocks := RPO(f)
	n := len(blocks)
	idx := make(map[*Block]int, n)
	for i, b := range blocks {
		idx[b] = i
	}
	// pdom[i] is the set of blocks postdominating blocks[i], as a
	// bitset; the virtual exit is implicit (postdominates everything).
	full := make([]bool, n)
	for i := range full {
		full[i] = true
	}
	pdom := make([][]bool, n)
	for i, b := range blocks {
		if len(b.Succs()) == 0 {
			s := make([]bool, n)
			s[i] = true
			pdom[i] = s
		} else {
			s := make([]bool, n)
			copy(s, full)
			pdom[i] = s
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := blocks[i]
			succs := b.Succs()
			if len(succs) == 0 {
				continue
			}
			s := make([]bool, n)
			copy(s, full)
			for _, sb := range succs {
				j, ok := idx[sb]
				if !ok {
					continue
				}
				for k := 0; k < n; k++ {
					s[k] = s[k] && pdom[j][k]
				}
			}
			s[i] = true
			for k := 0; k < n; k++ {
				if s[k] != pdom[i][k] {
					pdom[i] = s
					changed = true
					break
				}
			}
		}
	}
	// ipdom(b): the x in pdom(b)\{b} with |pdom(x)| == |pdom(b)|-1.
	size := func(s []bool) int {
		c := 0
		for _, v := range s {
			if v {
				c++
			}
		}
		return c
	}
	t := &PostDomTree{ipdom: map[*Block]*Block{}}
	for i, b := range blocks {
		want := size(pdom[i]) - 1
		var found *Block
		for k := 0; k < n; k++ {
			if k != i && pdom[i][k] && size(pdom[k]) == want {
				found = blocks[k]
				break
			}
		}
		t.ipdom[b] = found // nil = virtual exit
	}
	return t
}

// IPDom returns the immediate postdominator of b, or nil when b's only
// postdominator is the virtual exit.
func (t *PostDomTree) IPDom(b *Block) *Block { return t.ipdom[b] }

// PostDominates reports whether a postdominates b (reflexive); a nil a
// denotes the virtual exit, which postdominates everything.
func (t *PostDomTree) PostDominates(a, b *Block) bool {
	if a == nil {
		return true
	}
	for b != nil {
		if a == b {
			return true
		}
		b = t.ipdom[b]
	}
	return false
}

// Reach computes strict reachability between blocks: Reach(f)[a][b]
// reports a path of one or more edges from a to b, so a block reaches
// itself only on a cycle (never, once loops are unrolled).
func Reach(f *Func) map[*Block]map[*Block]bool {
	out := map[*Block]map[*Block]bool{}
	for _, b := range f.Blocks {
		seen := map[*Block]bool{}
		stack := append([]*Block(nil), b.Succs()...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, x.Succs()...)
		}
		out[b] = seen
	}
	return out
}
