package runtime

import "sync"

type gate struct {
	mu   sync.Mutex
	open bool
}

// openUp falls off its closing brace with mu still held on the path that
// does the work: the early return unlocks, the end does not.
func (g *gate) openUp() {
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return
	}
	g.open = true
} // want `return with mutex runtime.gate.mu still locked on this path`

// A func literal is its own body: its end is checked on its own held set.
func (g *gate) later() func() {
	return func() {
		g.mu.Lock()
		g.open = false
	} // want `return with mutex runtime.gate.mu still locked on this path`
}
