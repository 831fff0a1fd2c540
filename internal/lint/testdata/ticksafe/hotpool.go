//lintfixture:package truenorth/internal/compass
package compass

import "sync"

type lazyPool struct {
	peers     []chan int
	perWorker [][]int
	wg        sync.WaitGroup
}

// Step launches its workers every tick: each is a well-shaped pool worker,
// but started inside the per-tick hot function it is a goroutine spawn per
// worker per tick, not a pool.
//
//perf:hot
func (p *lazyPool) Step() {
	for w, ch := range p.peers {
		go func() { // want `pool worker launched inside per-tick hot function Step`
			for ph := range ch {
				p.perWorker[w] = append(p.perWorker[w], ph)
				p.wg.Done()
			}
		}()
	}
	p.wg.Wait()
}
