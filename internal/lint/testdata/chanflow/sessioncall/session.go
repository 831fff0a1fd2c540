//lintfixture:package truenorth/internal/runtime
package runtime

// Session runs on its own goroutine; callers hand it commands.
type Session struct {
	cmds  chan func()
	done  chan struct{}
	ticks uint64
}

// Pause parks the caller until the session goroutine takes the command.
func (s *Session) Pause() {
	s.do(func() {})
}

func (s *Session) do(f func()) {
	select {
	case s.cmds <- f:
	case <-s.done:
	}
}

// Ticks reads a counter: a runtime method that never blocks.
func (s *Session) Ticks() uint64 {
	return s.ticks
}
