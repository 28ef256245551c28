// Package bdd implements reduced, ordered binary decision diagrams (ROBDDs).
//
// SuperC represents presence conditions — the boolean formulas over
// configuration variables under which a token, macro definition, or AST
// branch is present — as BDDs (paper §3.2). BDDs are canonical: two boolean
// functions are equal if and only if their BDD node identities are equal,
// which makes feasibility tests (c1 ∧ c2 = false) and condition comparison
// constant-time once the diagram is built.
//
// The implementation is a hash-consed node store in the style of the mature
// BDD engines the paper leans on (JavaBDD wrapping BuDDy/CUDD): nodes live
// in fixed-size pages and are referenced by dense int32 ids, the unique
// table is open-addressed and linearly probed (no per-node map boxes), and
// the operation cache is a fixed-size, direct-mapped, *lossy* cache —
// colliding entries overwrite each other instead of growing, trading rare
// recomputation for zero allocation on the And/Or/Not hot path. Traversals
// that need per-node memoization (Restrict, SatCount) use epoch-stamped
// scratch buffers reused across calls rather than fresh maps.
//
// A Factory is safe for concurrent use by multiple goroutines: the unique
// table is sharded into hash stripes, each with its own lock, so concurrent
// subparsers (intra-unit parallel parsing, the daemon's request handlers)
// share one factory. Lookups are lock-free — published nodes are immutable
// and table slots are atomics — and a stripe lock is taken only to insert a
// new node. Node ids remain canonical within a factory: the same
// (level, lo, hi) triple yields the same id no matter which goroutine asks,
// so handle equality stays semantic equality under any interleaving. (Id
// *numbering* depends on allocation order and is not deterministic across
// concurrent runs; nothing semantic depends on it.) Variable order is fixed
// by Var creation order — concurrent creation of *new* variables is safe
// but makes the order scheduling-dependent, so workloads that need
// reproducible diagrams create variables before fanning out.
//
// Ids 0 and 1 are the False and True terminals. A Factory owns all nodes;
// Node values from different factories must not be mixed.
package bdd

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/guard"
)

// Node identifies a BDD node within its Factory. The zero value is the False
// terminal of every factory.
type Node int32

// Terminal nodes, valid in every Factory.
const (
	False Node = 0
	True  Node = 1
)

// node is the internal node representation: a variable level and two
// children. Terminals use level = terminalLevel. Nodes are immutable once
// published in the unique table.
type node struct {
	level  int32 // variable order position; smaller levels closer to the root
	lo, hi Node  // low (var=false) and high (var=true) children
}

const terminalLevel = math.MaxInt32

type opKind uint32

const (
	opAnd opKind = iota + 1 // 0 is reserved for empty cache entries
	opOr
	opXor
	opNot
)

const (
	// pageShift/pageSize size the node store's pages: ids map to
	// (id>>pageShift, id&pageMask). Pages are never moved once installed,
	// so lock-free readers can dereference ids without coordinating with
	// appenders (only the page *directory* is copied on growth).
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// The unique table is sharded into numStripes independent
	// open-addressed tables; the low hash bits pick the stripe, the
	// remaining bits index within it, so one stripe's probe sequence never
	// crosses into another's lock domain.
	stripeBits = 6
	numStripes = 1 << stripeBits
	stripeMask = numStripes - 1

	initialStripeSlots = 16
	initialTableSlots  = numStripes * initialStripeSlots // total, for tests

	initialOpSlots = 1 << 10 // op cache, grows with the node count
	maxOpSlots     = 1 << 18 // op cache stops growing here (2 MiB)

	// opIDBits is how many bits of a node id fit in one packed op-cache
	// word (3 op bits + 3×20 id bits = 63). Operations on ids beyond this
	// skip the cache — still correct, just uncached; a factory that large
	// has other problems first.
	opIDBits = 20
	opIDMax  = Node(1 << opIDBits)
)

// page is one fixed block of the node store.
type page [pageSize]node

// stripe is one lock domain of the sharded unique table: a power-of-two
// open-addressed array of node ids (0 = empty; terminals are never stored).
// Readers probe the table lock-free through the atomic slots; writers hold
// mu to insert or grow. Growth installs a fresh table and never mutates the
// old one, so a concurrent reader on a stale table can at worst miss a new
// node and retry under the lock.
type stripe struct {
	mu    sync.Mutex
	table atomic.Pointer[[]atomic.Int32]
	count int // nodes inserted; guarded by mu
}

// Factory allocates and owns BDD nodes. It is safe for concurrent use.
type Factory struct {
	// pages is the copy-on-write page directory. Appending a page copies
	// the directory slice under pageMu and atomically republishes it;
	// readers always dereference the current directory, and the
	// happens-before chain through the unique-table slot (or any other
	// synchronized channel an id traveled through) guarantees the directory
	// they load covers the id.
	pages  atomic.Pointer[[]*page]
	pageMu sync.Mutex
	nnodes atomic.Int64 // next id == number of allocated nodes

	stripes [numStripes]stripe

	// Direct-mapped lossy op cache: each slot packs (op, a, b, result)
	// into one atomic word, so readers and writers race benignly — an
	// entry is either absent, stale-but-valid, or current, never torn.
	ops      atomic.Pointer[[]atomic.Uint64]
	opMu     sync.Mutex
	opGrowAt atomic.Int64 // node count that triggers the next cache doubling

	// Variable order: names is copy-on-write (snapshot readers), varIndex
	// is guarded by varMu.
	names    atomic.Pointer[[]string] // level -> variable name
	varMu    sync.RWMutex
	varIndex map[string]int // name -> level

	// Epoch-stamped scratch buffers backing Restrict/SatCount memoization:
	// stamp[id] == epoch marks a valid entry, so starting a new traversal
	// is O(1) instead of allocating a map. One traversal at a time holds
	// scratchMu; these entry points are off the parse hot path.
	scratchMu sync.Mutex
	stamp     []uint32
	epoch     uint32
	memoN     []Node
	memoF     []float64

	opHits, opMisses, opEvictions atomic.Int64

	// budget, when set, is charged one guard.AxisBDDNodes per allocated
	// node. mk never aborts mid-operation — that would corrupt the
	// operation's recursion invariants — so a trip only records the
	// diagnostic; stage loop heads observe it and unwind.
	budget *guard.Budget
}

// NewFactory returns an empty factory containing only the two terminals.
func NewFactory() *Factory {
	f := &Factory{varIndex: make(map[string]int)}
	p0 := &page{}
	p0[0] = node{level: terminalLevel, lo: False, hi: False}
	p0[1] = node{level: terminalLevel, lo: True, hi: True}
	pages := []*page{p0}
	f.pages.Store(&pages)
	f.nnodes.Store(2)
	for i := range f.stripes {
		tbl := make([]atomic.Int32, initialStripeSlots)
		f.stripes[i].table.Store(&tbl)
	}
	ops := make([]atomic.Uint64, initialOpSlots)
	f.ops.Store(&ops)
	f.opGrowAt.Store(initialOpSlots * 3 / 4)
	names := []string{}
	f.names.Store(&names)
	return f
}

// SetBudget attaches a resource budget; every subsequently allocated node
// charges guard.AxisBDDNodes. Pass nil to detach. Not safe to call while
// other goroutines operate on the factory; attach before fanning out.
func (f *Factory) SetBudget(b *guard.Budget) { f.budget = b }

// NumVars reports how many distinct variables have been created.
func (f *Factory) NumVars() int { return len(*f.names.Load()) }

// NumNodes reports the total number of allocated nodes, including terminals.
func (f *Factory) NumNodes() int { return int(f.nnodes.Load()) }

// node dereferences an id. Callers hold an id only after it was published
// (through a table slot, an op-cache entry, or a synchronized handoff), so
// the node contents are visible.
func (f *Factory) node(id Node) node {
	pgs := *f.pages.Load()
	return pgs[id>>pageShift][id&pageMask]
}

// setNode installs the contents of a freshly allocated id, extending the
// page directory when id crosses into a new page. The caller publishes the
// id afterwards (table-slot store), which orders the node write before any
// reader's dereference.
func (f *Factory) setNode(id Node, nd node) {
	pi := int(id >> pageShift)
	pgs := *f.pages.Load()
	if pi >= len(pgs) {
		f.pageMu.Lock()
		pgs = *f.pages.Load()
		for pi >= len(pgs) {
			grown := make([]*page, len(pgs)+1)
			copy(grown, pgs)
			grown[len(pgs)] = &page{}
			f.pages.Store(&grown)
			pgs = grown
		}
		f.pageMu.Unlock()
	}
	pgs[pi][id&pageMask] = nd
}

// Var returns the BDD for the variable with the given name, creating the
// variable (at the next order position) if it does not exist yet.
func (f *Factory) Var(name string) Node {
	f.varMu.RLock()
	lvl, ok := f.varIndex[name]
	f.varMu.RUnlock()
	if !ok {
		f.varMu.Lock()
		lvl, ok = f.varIndex[name]
		if !ok {
			names := *f.names.Load()
			lvl = len(names)
			grown := make([]string, len(names)+1)
			copy(grown, names)
			grown[len(names)] = name
			f.names.Store(&grown)
			f.varIndex[name] = lvl
		}
		f.varMu.Unlock()
	}
	return f.mk(int32(lvl), False, True)
}

// VarName returns the name of the variable at the root of n. It panics if n
// is a terminal.
func (f *Factory) VarName(n Node) string {
	lvl := f.node(n).level
	if lvl == terminalLevel {
		panic("bdd: VarName of terminal")
	}
	return (*f.names.Load())[lvl]
}

// HasVar reports whether a variable with the given name has been created.
func (f *Factory) HasVar(name string) bool {
	f.varMu.RLock()
	_, ok := f.varIndex[name]
	f.varMu.RUnlock()
	return ok
}

// At decomposes an internal node into its root variable name and children
// (the Shannon cofactors n = name ? hi : lo). internal is false for the two
// terminals, whose other return values are meaningless. Package cond uses it
// to export conditions into space-independent formulas.
func (f *Factory) At(n Node) (name string, lo, hi Node, internal bool) {
	nd := f.node(n)
	if nd.level == terminalLevel {
		return "", 0, 0, false
	}
	return (*f.names.Load())[nd.level], nd.lo, nd.hi, true
}

// mix32 is a finalizing 32-bit hash (Prospector's low-bias constants).
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

func hashTriple(a, b, c uint32) uint32 {
	h := a*0x9e3779b1 + b*0x85ebca6b + c*0xc2b2ae35
	return mix32(h)
}

// probe searches one stripe table for (level, lo, hi). It returns the node
// id when present, or 0 and the first empty slot index when absent. It is
// safe to call without the stripe lock: slots are atomics and nodes are
// immutable; a racing insert can at worst make an absent verdict stale,
// which the caller resolves by re-probing under the lock.
func (f *Factory) probe(tbl []atomic.Int32, h uint32, level int32, lo, hi Node) (Node, int) {
	mask := uint32(len(tbl) - 1)
	i := (h >> stripeBits) & mask
	for {
		id := Node(tbl[i].Load())
		if id == 0 {
			return 0, int(i)
		}
		nd := f.node(id)
		if nd.level == level && nd.lo == lo && nd.hi == hi {
			return id, -1
		}
		i = (i + 1) & mask
	}
}

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules: identical children collapse, duplicates are shared via the
// sharded open-addressed unique table. The fast path — the node already
// exists — is lock-free; allocating takes the stripe's lock.
func (f *Factory) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	h := hashTriple(uint32(level), uint32(lo), uint32(hi))
	st := &f.stripes[h&stripeMask]
	if id, _ := f.probe(*st.table.Load(), h, level, lo, hi); id != 0 {
		return id
	}
	st.mu.Lock()
	tbl := *st.table.Load()
	id, slot := f.probe(tbl, h, level, lo, hi)
	if id != 0 {
		st.mu.Unlock()
		return id
	}
	id = Node(f.nnodes.Add(1) - 1)
	f.setNode(id, node{level: level, lo: lo, hi: hi})
	tbl[slot].Store(int32(id))
	st.count++
	// Grow at 75% load so probes stay short.
	if st.count*4 > len(tbl)*3 {
		f.growStripe(st, tbl)
	}
	st.mu.Unlock()
	f.budget.Charge("bdd", guard.AxisBDDNodes, 1)
	if f.nnodes.Load() > f.opGrowAt.Load() {
		f.growOps()
	}
	return id
}

// growStripe doubles one stripe's table and reinserts its nodes. Called
// with the stripe lock held; the old table is left untouched for concurrent
// lock-free readers, who miss into the lock and re-probe the new table.
func (f *Factory) growStripe(st *stripe, old []atomic.Int32) {
	grown := make([]atomic.Int32, len(old)*2)
	mask := uint32(len(grown) - 1)
	for i := range old {
		id := old[i].Load()
		if id == 0 {
			continue
		}
		nd := f.node(Node(id))
		h := hashTriple(uint32(nd.level), uint32(nd.lo), uint32(nd.hi))
		j := (h >> stripeBits) & mask
		for grown[j].Load() != 0 {
			j = (j + 1) & mask
		}
		grown[j].Store(id)
	}
	st.table.Store(&grown)
}

// growOps doubles the op cache (BuDDy sizes its caches relative to the node
// table) until maxOpSlots, rehashing live entries: the cache is lossy, but
// discarding the warm set exactly when the workload is growing would hurt
// most. Concurrent cachePuts into the retiring table are dropped — a lossy
// cache may forget, never lie.
func (f *Factory) growOps() {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	for f.nnodes.Load() > f.opGrowAt.Load() {
		old := *f.ops.Load()
		if len(old) >= maxOpSlots {
			f.opGrowAt.Store(math.MaxInt64)
			return
		}
		grown := make([]atomic.Uint64, len(old)*2)
		mask := uint32(len(grown) - 1)
		for i := range old {
			if e := old[i].Load(); e != 0 {
				op, a, b := unpackOpKey(e)
				grown[opHash(op, a, b)&mask].Store(e)
			}
		}
		f.ops.Store(&grown)
		f.opGrowAt.Store(int64(len(grown)) * 3 / 4)
	}
}

func opHash(op opKind, a, b Node) uint32 {
	return hashTriple(uint32(op), uint32(a), uint32(b))
}

// packOp encodes one op-cache entry into a single word: 3 op bits and
// 20 bits per id. All valid entries are non-zero (op >= 1).
func packOp(op opKind, a, b, r Node) uint64 {
	return uint64(op)<<60 | uint64(a)<<40 | uint64(b)<<20 | uint64(r)
}

func unpackOpKey(e uint64) (opKind, Node, Node) {
	const idMask = uint64(opIDMax) - 1
	return opKind(e >> 60), Node(e >> 40 & idMask), Node(e >> 20 & idMask)
}

// cacheGet consults the direct-mapped op cache.
func (f *Factory) cacheGet(op opKind, a, b Node) (Node, bool) {
	if a >= opIDMax || b >= opIDMax {
		f.opMisses.Add(1)
		return 0, false
	}
	ops := *f.ops.Load()
	e := ops[opHash(op, a, b)&uint32(len(ops)-1)].Load()
	if e != 0 && e>>20 == uint64(op)<<40|uint64(a)<<20|uint64(b) {
		f.opHits.Add(1)
		return Node(e & (uint64(opIDMax) - 1)), true
	}
	f.opMisses.Add(1)
	return 0, false
}

// cachePut stores a result, overwriting whatever occupied the slot (lossy
// direct-mapped replacement). The table is re-loaded because recursive
// calls may have grown the cache since the lookup.
func (f *Factory) cachePut(op opKind, a, b, r Node) {
	if a >= opIDMax || b >= opIDMax || r >= opIDMax {
		return
	}
	ops := *f.ops.Load()
	slot := &ops[opHash(op, a, b)&uint32(len(ops)-1)]
	if slot.Load() != 0 {
		f.opEvictions.Add(1)
	}
	slot.Store(packOp(op, a, b, r))
}

// Not returns the negation of a.
func (f *Factory) Not(a Node) Node {
	switch a {
	case False:
		return True
	case True:
		return False
	}
	if r, ok := f.cacheGet(opNot, a, 0); ok {
		return r
	}
	n := f.node(a)
	r := f.mk(n.level, f.Not(n.lo), f.Not(n.hi))
	f.cachePut(opNot, a, 0, r)
	return r
}

// And returns the conjunction of a and b.
func (f *Factory) And(a, b Node) Node { return f.apply(opAnd, a, b) }

// Or returns the disjunction of a and b.
func (f *Factory) Or(a, b Node) Node { return f.apply(opOr, a, b) }

// Xor returns the exclusive disjunction of a and b.
func (f *Factory) Xor(a, b Node) Node { return f.apply(opXor, a, b) }

// Implies returns ¬a ∨ b.
func (f *Factory) Implies(a, b Node) Node { return f.Or(f.Not(a), b) }

// Equiv returns the biconditional a ↔ b.
func (f *Factory) Equiv(a, b Node) Node { return f.Not(f.Xor(a, b)) }

// AndNot returns a ∧ ¬b, the common "trim away b" operation on presence
// conditions.
func (f *Factory) AndNot(a, b Node) Node { return f.And(a, f.Not(b)) }

func (f *Factory) apply(op opKind, a, b Node) Node {
	// Terminal cases. After these screens both operands are internal nodes
	// (ids >= 2), which cacheGet/cachePut rely on.
	switch op {
	case opAnd:
		if a == False || b == False {
			return False
		}
		if a == True {
			return b
		}
		if b == True {
			return a
		}
		if a == b {
			return a
		}
	case opOr:
		if a == True || b == True {
			return True
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
		if a == b {
			return a
		}
	case opXor:
		if a == b {
			return False
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
		if a == True {
			return f.Not(b)
		}
		if b == True {
			return f.Not(a)
		}
	}
	// Commutative: normalize operand order for better cache hits.
	if a > b {
		a, b = b, a
	}
	if r, ok := f.cacheGet(op, a, b); ok {
		return r
	}
	na, nb := f.node(a), f.node(b)
	var lvl int32
	var alo, ahi, blo, bhi Node
	switch {
	case na.level == nb.level:
		lvl, alo, ahi, blo, bhi = na.level, na.lo, na.hi, nb.lo, nb.hi
	case na.level < nb.level:
		lvl, alo, ahi, blo, bhi = na.level, na.lo, na.hi, b, b
	default:
		lvl, alo, ahi, blo, bhi = nb.level, a, a, nb.lo, nb.hi
	}
	r := f.mk(lvl, f.apply(op, alo, blo), f.apply(op, ahi, bhi))
	f.cachePut(op, a, b, r)
	return r
}

// Ite returns if-then-else: (c ∧ t) ∨ (¬c ∧ e).
func (f *Factory) Ite(c, t, e Node) Node {
	return f.Or(f.And(c, t), f.And(f.Not(c), e))
}

// beginScratch starts a new epoch over the stamped memo buffers, sizing
// them to the current node count. O(1) except on first use, growth, and
// epoch wrap-around. The caller holds scratchMu.
func (f *Factory) beginScratch() int {
	f.epoch++
	if f.epoch == 0 { // wrapped: stale stamps could alias; reset
		for i := range f.stamp {
			f.stamp[i] = 0
		}
		f.epoch = 1
	}
	n := f.NumNodes()
	if len(f.stamp) < n {
		f.stamp = append(f.stamp, make([]uint32, n-len(f.stamp))...)
		f.memoN = append(f.memoN, make([]Node, n-len(f.memoN))...)
		f.memoF = append(f.memoF, make([]float64, n-len(f.memoF))...)
	}
	return n
}

// Restrict returns a with the named variable fixed to val. If the variable
// has never been created, a is returned unchanged.
func (f *Factory) Restrict(a Node, name string, val bool) Node {
	f.varMu.RLock()
	lvl, ok := f.varIndex[name]
	f.varMu.RUnlock()
	if !ok {
		return a
	}
	f.scratchMu.Lock()
	defer f.scratchMu.Unlock()
	f.beginScratch()
	return f.restrict(a, int32(lvl), val)
}

// restrict memoizes on the scratch buffers; memo keys are ids of nodes
// reachable from the original a, all of which predate beginScratch, so the
// stamp buffer is never indexed out of range even though mk (here or in a
// concurrent goroutine) may allocate past it.
func (f *Factory) restrict(a Node, lvl int32, val bool) Node {
	n := f.node(a)
	if n.level > lvl {
		return a // terminal or below the variable in the order
	}
	if f.stamp[a] == f.epoch {
		return f.memoN[a]
	}
	var r Node
	if n.level == lvl {
		if val {
			r = n.hi
		} else {
			r = n.lo
		}
	} else {
		r = f.mk(n.level, f.restrict(n.lo, lvl, val), f.restrict(n.hi, lvl, val))
	}
	f.stamp[a] = f.epoch
	f.memoN[a] = r
	return r
}

// Exists existentially quantifies the named variable out of a.
func (f *Factory) Exists(a Node, name string) Node {
	return f.Or(f.Restrict(a, name, false), f.Restrict(a, name, true))
}

// SatOne returns one satisfying assignment of a, or ok = false when a is
// unsatisfiable. The map assigns only the variables along the chosen path;
// all other variables are don't-cares (Eval treats absent variables as
// false). The walk prefers the low (false) child at every decision node, so
// the witness is deterministic and enables the fewest variables the
// diagram's structure allows — the "minimal configuration" convention of
// configuration-coverage tools.
func (f *Factory) SatOne(a Node) (assign map[string]bool, ok bool) {
	if a == False {
		return nil, false
	}
	names := *f.names.Load()
	assign = make(map[string]bool)
	for a != True {
		nd := f.node(a)
		if nd.lo != False {
			assign[names[nd.level]] = false
			a = nd.lo
		} else {
			assign[names[nd.level]] = true
			a = nd.hi
		}
	}
	return assign, true
}

// IsFalse reports whether a is the unsatisfiable constant.
func (f *Factory) IsFalse(a Node) bool { return a == False }

// IsTrue reports whether a is the valid constant.
func (f *Factory) IsTrue(a Node) bool { return a == True }

// SatCount returns the number of satisfying assignments of a over all
// variables created so far, as a float64 (counts overflow int64 quickly).
func (f *Factory) SatCount(a Node) float64 {
	nvars := int32(len(*f.names.Load()))
	f.scratchMu.Lock()
	defer f.scratchMu.Unlock()
	f.beginScratch()
	return f.satCount(a, nvars) * exp2(f.levelOf(a, nvars))
}

// exp2 returns 2^k exactly (float64 arithmetic; k is a small level delta).
func exp2(k int32) float64 { return math.Ldexp(1, int(k)) }

func (f *Factory) levelOf(a Node, nvars int32) int32 {
	lvl := f.node(a).level
	if lvl == terminalLevel {
		return nvars
	}
	return lvl
}

// satCount returns satisfying assignments over variables at or below a's
// level; the caller scales for skipped variables above. Memoized on the
// epoch-stamped scratch buffers.
func (f *Factory) satCount(a Node, nvars int32) float64 {
	if a == False {
		return 0
	}
	if a == True {
		return 1
	}
	if f.stamp[a] == f.epoch {
		return f.memoF[a]
	}
	n := f.node(a)
	lo := f.satCount(n.lo, nvars) * exp2(f.levelOf(n.lo, nvars)-n.level-1)
	hi := f.satCount(n.hi, nvars) * exp2(f.levelOf(n.hi, nvars)-n.level-1)
	c := lo + hi
	f.stamp[a] = f.epoch
	f.memoF[a] = c
	return c
}

// AnySat returns one satisfying assignment of a as a map from variable name
// to value, mentioning only the variables on the chosen path. It returns nil
// and false when a is unsatisfiable.
func (f *Factory) AnySat(a Node) (map[string]bool, bool) {
	if a == False {
		return nil, false
	}
	names := *f.names.Load()
	assign := make(map[string]bool)
	for a != True {
		n := f.node(a)
		name := names[n.level]
		if n.hi != False {
			assign[name] = true
			a = n.hi
		} else {
			assign[name] = false
			a = n.lo
		}
	}
	return assign, true
}

// Support returns the sorted names of variables the function a depends on.
func (f *Factory) Support(a Node) []string {
	names := *f.names.Load()
	seen := make(map[int32]bool)
	visited := make(map[Node]bool)
	var walk func(Node)
	walk = func(n Node) {
		if n == False || n == True || visited[n] {
			return
		}
		visited[n] = true
		nd := f.node(n)
		seen[nd.level] = true
		walk(nd.lo)
		walk(nd.hi)
	}
	walk(a)
	out := make([]string, 0, len(seen))
	for lvl := range seen {
		out = append(out, names[lvl])
	}
	sort.Strings(out)
	return out
}

// MaxCubes bounds String's output: a function with more cubes (paths to
// True) than this renders its first MaxCubes cubes and the count of the
// rest, so rendering work and size are linear in the diagram, never in its
// path count, which can be exponential.
const MaxCubes = 16

// String renders a as a sum-of-products formula over variable names, e.g.
// "A&!B | !A", one cube per path to True. Terminals render as "1" and "0".
// Past MaxCubes cubes the rest are elided as "… (+N cubes)". The rendering
// is meant for diagnostics and tests, not for minimal formulas.
func (f *Factory) String(a Node) string { return f.render(a, MaxCubes) }

// render is String with the cube limit as a parameter.
func (f *Factory) render(a Node, maxCubes int) string {
	switch a {
	case False:
		return "0"
	case True:
		return "1"
	}
	names := *f.names.Load()
	var b strings.Builder
	var lits []string
	cubes := 0
	// walk renders the cubes below n in path order, reporting false once
	// the next cube would be past maxCubes.
	var walk func(Node) bool
	walk = func(n Node) bool {
		if n == False {
			return true
		}
		if n == True {
			if cubes == maxCubes {
				return false
			}
			if cubes > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(strings.Join(lits, "&"))
			cubes++
			return true
		}
		nd := f.node(n)
		lits = append(lits, "!"+names[nd.level])
		ok := walk(nd.lo)
		lits[len(lits)-1] = names[nd.level]
		ok = ok && walk(nd.hi)
		lits = lits[:len(lits)-1]
		return ok
	}
	if !walk(a) {
		rest := new(big.Int).Sub(f.pathCount(a, map[Node]*big.Int{}), big.NewInt(int64(maxCubes)))
		fmt.Fprintf(&b, " | … (+%s cubes)", rest)
	}
	if cubes == 0 {
		return "0"
	}
	return b.String()
}

// pathCount returns the number of paths from n to True, memoized per node:
// linear in the diagram however many paths there are.
func (f *Factory) pathCount(n Node, memo map[Node]*big.Int) *big.Int {
	switch n {
	case False:
		return big.NewInt(0)
	case True:
		return big.NewInt(1)
	}
	if c, ok := memo[n]; ok {
		return c
	}
	nd := f.node(n)
	c := new(big.Int).Add(f.pathCount(nd.lo, memo), f.pathCount(nd.hi, memo))
	memo[n] = c
	return c
}

// Eval evaluates a under the given assignment; variables absent from the
// assignment default to false.
func (f *Factory) Eval(a Node, assign map[string]bool) bool {
	names := *f.names.Load()
	for a != False && a != True {
		n := f.node(a)
		if assign[names[n.level]] {
			a = n.hi
		} else {
			a = n.lo
		}
	}
	return a == True
}

// Size returns the number of nodes reachable from a, including terminals.
// This is the size of the function's diagram, as opposed to NumNodes, which
// counts every node the factory has ever allocated.
func (f *Factory) Size(a Node) int {
	visited := map[Node]bool{}
	var walk func(Node)
	walk = func(n Node) {
		if visited[n] {
			return
		}
		visited[n] = true
		if n == False || n == True {
			return
		}
		nd := f.node(n)
		walk(nd.lo)
		walk(nd.hi)
	}
	walk(a)
	return len(visited)
}

// CacheStats describes the size and effectiveness of the factory's internal
// tables.
type CacheStats struct {
	Nodes  int // allocated nodes, terminals included
	Unique int // internal (hash-consed) nodes
	Vars   int

	TableSlots int // unique-table capacity (all stripes); load = Unique/TableSlots

	OpCache     int   // live op-cache entries
	OpSlots     int   // op-cache capacity
	OpHits      int64 // op-cache hits since creation
	OpMisses    int64
	OpEvictions int64 // live entries overwritten (direct-mapped collisions)
}

// Stats returns current table sizes and cache counters, useful when tuning
// workloads. Counters are snapshots; concurrent operations may be mid-bump.
func (f *Factory) Stats() CacheStats {
	ops := *f.ops.Load()
	live := 0
	for i := range ops {
		if ops[i].Load() != 0 {
			live++
		}
	}
	slots := 0
	for i := range f.stripes {
		slots += len(*f.stripes[i].table.Load())
	}
	n := f.NumNodes()
	return CacheStats{
		Nodes:       n,
		Unique:      n - 2,
		Vars:        f.NumVars(),
		TableSlots:  slots,
		OpCache:     live,
		OpSlots:     len(ops),
		OpHits:      f.opHits.Load(),
		OpMisses:    f.opMisses.Load(),
		OpEvictions: f.opEvictions.Load(),
	}
}

// Dump writes a textual listing of the diagram rooted at a, one node per
// line, for debugging.
func (f *Factory) Dump(a Node) string {
	names := *f.names.Load()
	var b strings.Builder
	visited := make(map[Node]bool)
	var walk func(Node)
	walk = func(n Node) {
		if n == False || n == True || visited[n] {
			return
		}
		visited[n] = true
		nd := f.node(n)
		fmt.Fprintf(&b, "@%d: %s ? @%d : @%d\n", n, names[nd.level], nd.hi, nd.lo)
		walk(nd.lo)
		walk(nd.hi)
	}
	walk(a)
	return b.String()
}
