package runtime

import (
	"sync"
	"time"
)

type pipeSrv struct {
	mu sync.Mutex
	ch chan int
}

// emit holds mu across a helper whose body sends: the send is in another
// function, so the finding sits on the call, with the witness chain.
func (s *pipeSrv) emit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.push(1) // want `mutex runtime.pipeSrv.mu is held across the call to push, which may block: push: a channel send \(lockblock.go:\d+\)`
}

func (s *pipeSrv) push(v int) {
	s.ch <- v
}

// slowPath reaches a time.Sleep two calls down.
func (s *pipeSrv) slowPath() {
	s.mu.Lock()
	s.nap() // want `mutex runtime.pipeSrv.mu is held across the call to nap, which may block: nap → snooze: time.Sleep \(lockblock.go:\d+\)`
	s.mu.Unlock()
}

func (s *pipeSrv) nap()    { s.snooze() }
func (s *pipeSrv) snooze() { time.Sleep(time.Millisecond) }

// afterUnlock calls the same blocking helper with the lock released: fine.
func (s *pipeSrv) afterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.push(2)
}

// spawn hands the helper to a goroutine: it blocks its own goroutine, not
// the lock holder.
func (s *pipeSrv) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.push(3)
}
