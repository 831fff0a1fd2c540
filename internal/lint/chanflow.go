package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// ChanFlow returns the channel-and-blocking analyzer for the concurrency
// packages. Go's channel rules are asymmetric — close is an owner-only
// operation, send-after-close panics, and a bare send on an unbuffered
// channel parks the sender until a receiver shows up — and a lock held
// across any blocking operation turns one slow goroutine into a stalled
// server. chanflow follows these facts through the call graph and across
// the functions of a package. Three rules:
//
//  1. Nothing blocks while a mutex is held, directly or through any
//     callee: a channel send/receive, a select with no default arm, a
//     range over a channel, time.Sleep, or a Wait call stalls every
//     goroutine that wants the lock. The one held-lock walk (heldWalker)
//     reports the body's own blocking operations as the Program's
//     HazardBlock classifier sees them, and every call made under the lock
//     whose callee — any number of calls away — blocks, with the witness
//     chain. Go-spawned code is exempt: it blocks its own goroutine, not
//     the lock holder.
//  2. A channel is closed only by its owner, and once. Closing a channel
//     parameter or a receive-only channel closes someone else's channel;
//     a second close site of the same channel (direct, or by passing it to
//     a helper that closes its parameter) panics unless the sites are
//     provably exclusive — the later site cites the earlier, so the owner
//     structure has to be made explicit or suppressed with the
//     serialization argument spelled out.
//  3. No send can meet a closed channel or park forever: a send lexically
//     after a close in the same function, or on a field channel another
//     function of the package closes, panics if the close wins; a bare
//     send (outside a select arm) on a channel whose every in-package
//     make has no capacity can park the sending loop forever. Channels
//     whose construction the analyzer cannot see stay quiet for the last
//     case — a caller-provided channel's capacity is the caller's contract.
//
// Rules 2 and 3 share one fact collection keyed by terminal name: a
// selector chain (s.out, s.peers[w]) names a struct field, shared
// package-wide; anything else names a local of its function.
func ChanFlow() *Analyzer {
	return &Analyzer{
		Name:     "chanflow",
		Doc:      "no blocking under a held mutex (directly or through callees), owner-only single close, no send after close, no bare sends on unbuffered channels",
		Packages: ConcurrencyPackages,
		Run:      runChanFlow,
	}
}

func runChanFlow(pkg *Package, report ReportFunc) {
	prog := pkg.Prog
	if prog == nil {
		return
	}
	var nodes []*FuncNode
	prog.Funcs(pkg, func(n *FuncNode) { nodes = append(nodes, n) })
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })

	facts := &chanFacts{
		bufs:   map[chanKey]chanBuf{},
		closes: map[chanKey][]chanSite{},
		closer: &paramCloseIndex{prog: prog, memo: map[*FuncNode]map[int]string{}},
	}
	for _, n := range nodes {
		checkBlockingUnderLock(pkg, prog, n, report)
		facts.collect(pkg, prog, n, report)
	}
	facts.check(pkg, report)
}

// checkBlockingUnderLock applies rule 1 to one function via the held-lock
// walk: the body's own blocking operations, and every module-local call
// made with a lock held, taint-queried for blocking hazards. One finding
// per position — a call that is itself a blocking site is not also
// reported as a blocking call.
func checkBlockingUnderLock(pkg *Package, prog *Program, n *FuncNode, report ReportFunc) {
	reported := map[token.Pos]bool{}
	walkHeld(pkg, n, heldHooks{
		block: func(h Hazard, held map[string]token.Pos) {
			if !reported[h.Pos] {
				reported[h.Pos] = true
				report(h.Pos, "mutex %s is held across %s; release it before blocking", heldList(held), h.Msg)
			}
		},
		call: func(e CallEdge, held map[string]token.Pos) {
			if reported[e.Pos] {
				return
			}
			if t := prog.EdgeTaint(e, HazardBlock); t != nil {
				reported[e.Pos] = true
				report(e.Pos, "mutex %s is held across the call to %s, which may block: %s",
					heldList(held), e.Name, t.Describe(pkg.Fset))
			}
		},
	})
}

// heldList renders a held set for messages, sorted.
func heldList(held map[string]token.Pos) string {
	locks := make([]string, 0, len(held))
	for h := range held {
		locks = append(locks, lockDisplay(h))
	}
	sort.Strings(locks)
	return strings.Join(locks, ", ")
}

// chanKey identifies a channel by terminal name: a struct field
// package-wide (fn nil), or a local or parameter of fn.
type chanKey struct {
	fn   *FuncNode
	name string
}

// chanKeyOf keys a channel expression: a selector chain names a field,
// anything rooted at a plain identifier names a local of fn.
func chanKeyOf(fn *FuncNode, e ast.Expr) (chanKey, bool) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return chanKey{name: x.Sel.Name}, true
		case *ast.Ident:
			return chanKey{fn: fn, name: x.Name}, true
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return chanKey{}, false
		}
	}
}

// describe renders a key for messages: `channel field "out"` or
// `channel "ch"`.
func (k chanKey) describe() string {
	if k.fn == nil {
		return fmt.Sprintf("channel field %q", k.name)
	}
	return fmt.Sprintf("channel %q", k.name)
}

// chanBuf records what is known about a channel's capacity: buffered,
// unbuffered, or (when no make is visible) unknown.
type chanBuf int

const (
	chanUnknown chanBuf = iota
	chanUnbuffered
	chanBuffered
)

// chanMakeBuf classifies a make(chan ...) call; ok is false for any other
// expression.
func chanMakeBuf(e ast.Expr) (chanBuf, bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return chanUnknown, false
	}
	id, isIdent := call.Fun.(*ast.Ident)
	if !isIdent || id.Name != "make" || len(call.Args) == 0 {
		return chanUnknown, false
	}
	if _, isChan := call.Args[0].(*ast.ChanType); !isChan {
		return chanUnknown, false
	}
	if len(call.Args) < 2 || isIntLit(call.Args[1], "0") {
		return chanUnbuffered, true
	}
	return chanBuffered, true
}

// chanSite is one close or send of a channel. via is the helper chain of
// a delegated close ("" for a direct one); guarded marks a send that is a
// select arm, which cannot park its goroutine unconditionally.
type chanSite struct {
	fn      *FuncNode
	pos     token.Pos
	via     string
	guarded bool
}

// chanFacts is the one fact collection behind rules 2 and 3: the make,
// close and send sites of every channel of a package, by key.
type chanFacts struct {
	bufs   map[chanKey]chanBuf
	closes map[chanKey][]chanSite
	sends  []chanSend
	closer *paramCloseIndex
}

type chanSend struct {
	key chanKey
	chanSite
}

// collect records n's makes, closes and sends, and reports the closes that
// are not the owner's (rule 2, first half).
func (f *chanFacts) collect(pkg *Package, prog *Program, n *FuncNode, report ReportFunc) {
	edges := map[token.Pos]CallEdge{}
	for _, e := range n.Calls {
		edges[e.Pos] = e
	}
	params := chanParams(n.Decl)
	var paramCloses []*ast.Ident
	guarded := map[*ast.SendStmt]bool{}
	setBuf := func(k chanKey, buf chanBuf) {
		if old := f.bufs[k]; old != chanUnknown && old != buf {
			buf = chanBuffered // a name made both ways identifies neither: stay quiet
		}
		f.bufs[k] = buf
	}
	closeAt := func(arg ast.Expr, site chanSite) {
		if k, ok := chanKeyOf(n, arg); ok {
			f.closes[k] = append(f.closes[k], site)
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if buf, ok := chanMakeBuf(rhs); ok && i < len(x.Lhs) {
					if k, ok := chanKeyOf(n, x.Lhs[i]); ok {
						setBuf(k, buf)
					}
				}
			}
		case *ast.KeyValueExpr:
			// Composite-literal field init: subscriber{ch: make(...)}.
			if key, ok := x.Key.(*ast.Ident); ok {
				if buf, ok := chanMakeBuf(x.Value); ok {
					setBuf(chanKey{name: key.Name}, buf)
				}
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					if send, ok := cc.Comm.(*ast.SendStmt); ok {
						guarded[send] = true
					}
				}
			}
		case *ast.SendStmt:
			if k, ok := chanKeyOf(n, x.Chan); ok {
				f.sends = append(f.sends, chanSend{key: k, chanSite: chanSite{fn: n, pos: x.Pos(), guarded: guarded[x]}})
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				arg := x.Args[0]
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && params[id.Name] {
					paramCloses = append(paramCloses, id)
				} else if t := pkg.TypeOf(arg); t != nil {
					if ch, ok := t.Underlying().(*types.Chan); ok && ch.Dir() == types.RecvOnly {
						report(x.Pos(), "close of receive-only channel %q: the receiving side never owns the close", terminalName(arg))
					}
				}
				closeAt(arg, chanSite{fn: n, pos: x.Pos()})
				return true
			}
			e, ok := edges[x.Pos()]
			if !ok {
				return true
			}
			if callee := prog.FuncAt(e.Callee); callee != nil {
				for i, chain := range f.closer.closedParams(callee, map[*FuncNode]bool{}) {
					if i < len(x.Args) {
						via := e.Name
						if chain != "" {
							via += " → " + chain
						}
						closeAt(x.Args[i], chanSite{fn: n, pos: x.Pos(), via: via})
					}
				}
			}
		}
		return true
	})
	for _, id := range paramCloses {
		// A parameter name the function also makes locally is its own.
		if f.bufs[chanKey{fn: n, name: id.Name}] == chanUnknown {
			report(id.Pos(), "close of channel parameter %q: only the owning creator closes a channel", id.Name)
		}
	}
}

// check applies the package-wide halves of rules 2 and 3 once every
// function's facts are in.
func (f *chanFacts) check(pkg *Package, report ReportFunc) {
	at := func(s *chanSite) string {
		p := pkg.Fset.Position(s.pos)
		return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}
	for k, sites := range f.closes {
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		for _, s := range sites[1:] {
			report(s.pos, "%s is closed here and in %s (%s); a channel may be closed at most once — give it one owner or suppress with the serialization argument",
				k.describe(), sites[0].fn.Name(), at(&sites[0]))
		}
	}
	for _, s := range f.sends {
		var before, elsewhere *chanSite
		closesHere := false
		for i := range f.closes[s.key] {
			c := &f.closes[s.key][i]
			if c.fn == s.fn {
				closesHere = true
				if c.pos < s.pos && before == nil {
					before = c
				}
			} else if elsewhere == nil {
				elsewhere = c
			}
		}
		switch {
		case before != nil:
			report(s.pos, "send on %q after it was closed above; send-after-close panics", s.key.name)
		case elsewhere != nil && !closesHere:
			// A closing function's own sends are ordered against its
			// close lexically, by the case above.
			how := ""
			if elsewhere.via != "" {
				how = " via " + elsewhere.via
			}
			report(s.pos, "send on %s, which %s closes%s (%s); send-on-closed panics — prove the send happens-before the close or suppress with that argument",
				s.key.describe(), elsewhere.fn.Name(), how, at(elsewhere))
		case !s.guarded && f.bufs[s.key] == chanUnbuffered:
			report(s.pos, "bare send on unbuffered channel %q can park this goroutine forever; buffer the channel or send under a select with a default/shutdown arm", s.key.name)
		}
	}
}

// chanParams returns the names of the channel-typed parameters of fd and
// of every func literal inside it — the channels this code does not own.
func chanParams(fd *ast.FuncDecl) map[string]bool {
	params := map[string]bool{}
	add := func(fl *ast.FieldList) {
		for _, field := range fl.List {
			if _, isChan := field.Type.(*ast.ChanType); isChan {
				for _, name := range field.Names {
					params[name.Name] = true
				}
			}
		}
	}
	add(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			add(fl.Type.Params)
		}
		return true
	})
	return params
}

// paramCloseIndex memoizes, per function, which parameter indices the
// function (or any synchronous callee it forwards the parameter to)
// closes.
type paramCloseIndex struct {
	prog *Program
	memo map[*FuncNode]map[int]string
}

// closedParams maps parameter index → helper chain ("" when the close is
// in the function itself, "g → h" when forwarded).
func (c *paramCloseIndex) closedParams(n *FuncNode, visiting map[*FuncNode]bool) map[int]string {
	if got, ok := c.memo[n]; ok {
		return got
	}
	if visiting[n] {
		return nil
	}
	visiting[n] = true
	defer delete(visiting, n)

	params := map[string]int{}
	i := 0
	for _, field := range n.Decl.Type.Params.List {
		for _, name := range field.Names {
			params[name.Name] = i
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	out := map[int]string{}
	edges := map[token.Pos]CallEdge{}
	for _, e := range n.Calls {
		if !e.InGo {
			edges[e.Pos] = e
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "close" && len(call.Args) == 1 {
			if arg, isIdent := ast.Unparen(call.Args[0]).(*ast.Ident); isIdent {
				if idx, isParam := params[arg.Name]; isParam {
					if _, have := out[idx]; !have {
						out[idx] = ""
					}
				}
			}
			return true
		}
		if e, isEdge := edges[call.Pos()]; isEdge {
			callee := c.prog.FuncAt(e.Callee)
			if callee == nil {
				return true
			}
			for calleeIdx, chain := range c.closedParams(callee, visiting) {
				if calleeIdx >= len(call.Args) {
					continue
				}
				arg, isIdent := ast.Unparen(call.Args[calleeIdx]).(*ast.Ident)
				if !isIdent {
					continue
				}
				if idx, isParam := params[arg.Name]; isParam {
					if _, have := out[idx]; !have {
						via := e.Name
						if chain != "" {
							via += " → " + chain
						}
						out[idx] = via
					}
				}
			}
		}
		return true
	})
	if len(visiting) == 1 {
		c.memo[n] = out
	}
	return out
}
