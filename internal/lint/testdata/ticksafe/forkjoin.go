//lintfixture:package truenorth/internal/compass
package compass

import "sync"

type forkJoin struct {
	perWorker [][]int
	wg        sync.WaitGroup
}

// Step spawns one goroutine per worker every tick. Each writes only its own
// slot and signals the barrier, but the spawn itself is the per-tick cost a
// pool started at construction avoids.
//
//perf:hot
func (s *forkJoin) Step() {
	for w := range s.perWorker {
		s.wg.Add(1)
		go func() { // want `not a pool worker`
			defer s.wg.Done()
			s.perWorker[w] = s.perWorker[w][:0]
		}()
	}
	s.wg.Wait()
}
