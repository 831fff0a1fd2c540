//lintfixture:package truenorth/internal/serve
package serve

import (
	"sync"

	"truenorth/internal/runtime"
)

type Server struct {
	mu       sync.Mutex
	sessions map[string]*runtime.Session
}

// pause holds the server lock while the session's command channel parks
// the caller: one slow session stalls every request behind the lock.
func (s *Server) pause(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[id].Pause() // want `mutex serve.Server.mu is held across the call to Pause, which may block: Pause → do: a select with no default arm \(session.go:\d+\)`
}

// ticks calls a runtime method under the lock too, but the call graph
// shows it cannot block: no finding.
func (s *Server) ticks(id string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id].Ticks()
}
