package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder returns the lock-discipline analyzer for the concurrency
// packages. Two rules, both fed by the one held-lock walk (heldWalker):
//
//  1. No lock-order cycle. Per-function lock-acquisition summaries
//     propagate through the call graph: holding lock A (directly or via a
//     deferred unlock) while acquiring lock B — in the same body or
//     anywhere down the call chain — adds the edge A → B to a global
//     lock-order graph over the program's named mutexes (struct-field
//     locks like serve.Server.mu, package-level locks like
//     sim.registryMu). Any cycle in that graph is a potential deadlock:
//     two goroutines entering the cycle from different points block each
//     other forever, and no test is guaranteed to catch it because the
//     interleaving is timing-dependent. A self-edge — Lock twice without
//     an intervening unlock, in one body or through a callee — deadlocks
//     a single goroutine outright (sync mutexes are not reentrant). Each
//     edge on a cycle is a finding, reported at its witness (the
//     acquisition, or the call that leads to it) with the full call chain.
//  2. No leaked lock: a return path — or the closing brace of a body that
//     falls off its end — with a lock still held and no deferred unlock
//     deadlocks the next goroutine that takes the lock.
//
// The acyclic graph itself is reviewable output: the golden test in
// lockorder_golden_test.go pins it under testdata/lockorder/, so a new
// edge in the lock hierarchy shows up in review like a perfproof budget
// change. Go-spawned code contributes no edges to its spawner (a goroutine
// holds its own locks); locks the analyzer cannot name (locals, unresolved
// receivers) never become graph nodes, but their leaks are still reported.
func LockOrder() *Analyzer {
	graphs := map[*Program]*LockGraph{}
	return &Analyzer{
		Name:     "lockorder",
		Doc:      "forbid lock-order cycles over the call graph (potential deadlocks, double Lock) and return paths that leak a held lock",
		Packages: ConcurrencyPackages,
		Run: func(pkg *Package, report ReportFunc) {
			prog := pkg.Prog
			if prog == nil {
				return
			}
			g, ok := graphs[prog]
			if !ok {
				g = NewLockGraph(prog, ConcurrencyPackages)
				graphs[prog] = g
			}
			for _, e := range g.CycleEdges() {
				if e.Fn.Pkg != pkg {
					continue
				}
				if e.From == e.To && len(e.Chain) == 0 {
					report(e.Pos(), "mutex %s locked again without an intervening unlock (self-deadlock: sync mutexes are not reentrant)", e.To)
					continue
				}
				report(e.Pos(), "acquiring %s while %s is held completes a lock-order cycle (%s); a concurrent acquisition in cycle order deadlocks — witness: %s",
					e.To, e.From, g.cycleString(e), e.witness(pkg.Fset))
			}
			for _, l := range g.leaks {
				if l.fn.Pkg == pkg {
					report(l.pos, "return with mutex %s still locked on this path; unlock it first or defer the unlock", lockDisplay(l.key))
				}
			}
		},
	}
}

// LockEdge is one ordered pair in the lock-order graph: To was acquired
// while From was held, in Fn's body (Chain empty) or through the calls in
// Chain starting from Fn.
type LockEdge struct {
	From, To string
	Fn       *FuncNode
	Chain    []CallEdge // call chain from Fn to the acquiring function
	AcqPos   token.Pos  // position of the To acquisition
}

// Pos is where the edge is reported: the call site in Fn for propagated
// edges, the acquisition itself for direct ones.
func (e *LockEdge) Pos() token.Pos {
	if len(e.Chain) > 0 {
		return e.Chain[0].Pos
	}
	return e.AcqPos
}

// witness renders the edge's evidence: "g → h: Lock (file:line)" for a
// propagated edge, "Lock (file:line)" for a direct one.
func (e *LockEdge) witness(fset *token.FileSet) string {
	var sb strings.Builder
	for i, c := range e.Chain {
		if i > 0 {
			sb.WriteString(" → ")
		}
		sb.WriteString(c.Name)
	}
	if len(e.Chain) > 0 {
		sb.WriteString(": ")
	}
	pos := fset.Position(e.AcqPos)
	fmt.Fprintf(&sb, "%s acquired at %s:%d", e.To, filepath.Base(pos.Filename), pos.Line)
	return sb.String()
}

// via renders the stable (line-number-free) provenance used in the golden:
// the walked function plus the call chain.
func (e *LockEdge) via() string {
	parts := []string{e.Fn.Name()}
	for _, c := range e.Chain {
		parts = append(parts, c.Name)
	}
	return strings.Join(parts, " → ")
}

// LockGraph is the global lock-order graph: every named mutex acquired in
// the target packages, and every ordered acquisition pair observed in or
// reachable from their function bodies.
type LockGraph struct {
	Locks []string
	Edges []*LockEdge

	scc   map[string]int // lock → strongly-connected-component id
	leaks []lockLeak
}

// lockLeak is one return path of fn that leaves the lock key held.
type lockLeak struct {
	fn  *FuncNode
	key string
	pos token.Pos
}

// lockAcq is one entry of a function's transitive acquisition summary.
type lockAcq struct {
	pos   token.Pos
	chain []CallEdge
}

// lockGraphBuilder accumulates summaries and edges over one program.
type lockGraphBuilder struct {
	prog  *Program
	memo  map[*FuncNode]map[string]lockAcq
	locks map[string]bool
	edges map[[2]string]*LockEdge
	leaks []lockLeak
}

// NewLockGraph builds the lock-order graph over every program package
// matching targets. Functions outside the target packages contribute no
// edges of their own but their acquisition summaries propagate into the
// targets' call sites.
func NewLockGraph(prog *Program, targets []string) *LockGraph {
	b := &lockGraphBuilder{
		prog:  prog,
		memo:  map[*FuncNode]map[string]lockAcq{},
		locks: map[string]bool{},
		edges: map[[2]string]*LockEdge{},
	}
	for _, pkg := range prog.Packages() {
		if !pathMatches(targets, pkg.Path) {
			continue
		}
		prog.Funcs(pkg, func(n *FuncNode) { b.walk(pkg, n) })
	}
	g := &LockGraph{leaks: b.leaks}
	for l := range b.locks {
		g.Locks = append(g.Locks, l)
	}
	sort.Strings(g.Locks)
	for _, e := range b.edges {
		g.Edges = append(g.Edges, e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, c := g.Edges[i], g.Edges[j]
		if a.From != c.From {
			return a.From < c.From
		}
		return a.To < c.To
	})
	g.computeSCC()
	return g
}

// walk generates the edges and leaks arising in one function body.
func (b *lockGraphBuilder) walk(pkg *Package, n *FuncNode) {
	walkHeld(pkg, n, heldHooks{
		acquire: func(key string, pos token.Pos, held map[string]token.Pos) {
			if strings.HasPrefix(key, localLockPrefix) {
				return
			}
			b.locks[key] = true
			for h := range held {
				if !strings.HasPrefix(h, localLockPrefix) {
					b.addEdge(h, key, n, nil, pos)
				}
			}
		},
		call: func(e CallEdge, held map[string]token.Pos) {
			callee := b.prog.FuncAt(e.Callee)
			if callee == nil {
				return
			}
			for key, acq := range b.acquires(callee, map[*FuncNode]bool{}) {
				for h := range held {
					if !strings.HasPrefix(h, localLockPrefix) {
						chain := append([]CallEdge{e}, acq.chain...)
						b.addEdge(h, key, n, chain, acq.pos)
					}
				}
			}
		},
		leak: func(key string, pos token.Pos) {
			b.leaks = append(b.leaks, lockLeak{fn: n, key: key, pos: pos})
		},
	})
}

// addEdge records an edge, keeping the earliest witness for determinism.
func (b *lockGraphBuilder) addEdge(from, to string, fn *FuncNode, chain []CallEdge, acqPos token.Pos) {
	b.locks[from] = true
	b.locks[to] = true
	edge := &LockEdge{From: from, To: to, Fn: fn, Chain: chain, AcqPos: acqPos}
	key := [2]string{from, to}
	if old, ok := b.edges[key]; !ok || edge.Pos() < old.Pos() {
		b.edges[key] = edge
	}
}

// acquires returns the transitive acquisition summary of one function:
// every named lock the function (or anything it synchronously calls)
// acquires, with the earliest witness chain. Go-spawned callees are
// excluded — their acquisitions happen on another goroutine. Cycles in the
// call graph conservatively stop the recursion.
func (b *lockGraphBuilder) acquires(n *FuncNode, visiting map[*FuncNode]bool) map[string]lockAcq {
	if got, ok := b.memo[n]; ok {
		return got
	}
	if visiting[n] {
		return nil
	}
	visiting[n] = true
	defer delete(visiting, n)

	out := map[string]lockAcq{}
	merge := func(key string, acq lockAcq) {
		if old, ok := out[key]; !ok || acq.pos < old.pos {
			out[key] = acq
		}
	}
	for _, site := range directAcquires(n) {
		merge(site.key, lockAcq{pos: site.pos})
	}
	for _, e := range n.Calls {
		if e.InGo {
			continue
		}
		callee := b.prog.FuncAt(e.Callee)
		if callee == nil {
			continue
		}
		for key, acq := range b.acquires(callee, visiting) {
			merge(key, lockAcq{pos: acq.pos, chain: append([]CallEdge{e}, acq.chain...)})
		}
	}
	if len(visiting) == 1 {
		// Memoize only at the outermost frame: inner results computed
		// under a cycle guard may be incomplete (same rule as taint).
		b.memo[n] = out
	}
	return out
}

// acquireSite is one named-lock acquisition in a function body.
type acquireSite struct {
	key string
	pos token.Pos
}

// directAcquires lists the named locks n's own body acquires, excluding
// go-spawned func literals (their acquisitions belong to the goroutine).
func directAcquires(n *FuncNode) []acquireSite {
	var sites []acquireSite
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			if _, ok := x.Call.Fun.(*ast.FuncLit); ok {
				return false
			}
		case *ast.CallExpr:
			if _, op, ok := mutexOp(x); ok && (op == "Lock" || op == "RLock") {
				sel := x.Fun.(*ast.SelectorExpr)
				if key := lockKey(n.Pkg, sel.X); key != "" {
					sites = append(sites, acquireSite{key: key, pos: x.Pos()})
				}
			}
		}
		return true
	})
	return sites
}

// computeSCC runs Tarjan's strongly-connected-components algorithm over
// the edge set; edges inside one multi-node component (or self-loops) are
// the cycle edges.
func (g *LockGraph) computeSCC() {
	adj := map[string][]string{}
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	g.scc = map[string]int{}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next, comp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				g.scc[w] = comp
				if w == v {
					break
				}
			}
			comp++
		}
	}
	for _, l := range g.Locks {
		if _, seen := index[l]; !seen {
			strongconnect(l)
		}
	}
}

// CycleEdges returns the edges participating in a lock-order cycle: edges
// whose endpoints share a strongly connected component, including
// self-loops (re-acquiring a held lock through a call chain).
func (g *LockGraph) CycleEdges() []*LockEdge {
	sccSize := map[int]int{}
	for _, c := range g.scc {
		sccSize[c]++
	}
	var out []*LockEdge
	for _, e := range g.Edges {
		if e.From == e.To || (g.scc[e.From] == g.scc[e.To] && sccSize[g.scc[e.From]] > 1) {
			out = append(out, e)
		}
	}
	return out
}

// cycleString renders the lock cycle an edge participates in, starting at
// the lexically smallest member: "A → B → A".
func (g *LockGraph) cycleString(e *LockEdge) string {
	if e.From == e.To {
		return e.From + " → " + e.To
	}
	var members []string
	for _, l := range g.Locks {
		if g.scc[l] == g.scc[e.From] {
			members = append(members, l)
		}
	}
	sort.Strings(members)
	return strings.Join(append(members, members[0]), " → ")
}

// Render emits the reviewable hierarchy report checked in as the lockorder
// golden: every named lock, then every edge with its (line-number-free)
// witness provenance, both sorted. Line numbers are deliberately absent so
// the golden only changes when the lock structure does.
func (g *LockGraph) Render() string {
	var sb strings.Builder
	sb.WriteString("# tnlint lockorder hierarchy\n")
	sb.WriteString("# nodes: named mutexes acquired in runtime/serve/compass/sim\n")
	sb.WriteString("# edge \"A -> B via F\": F acquires B while holding A — review new edges\n")
	sb.WriteString("# like perfproof budgets; cycles fail tnlint outright\n")
	for _, l := range g.Locks {
		fmt.Fprintf(&sb, "lock %s\n", l)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&sb, "edge %s -> %s via %s\n", e.From, e.To, e.via())
	}
	return sb.String()
}
