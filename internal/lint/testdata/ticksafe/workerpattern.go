//lintfixture:package truenorth/internal/compass
package compass

import "sync"

type engine2 struct {
	perWorker [][]int
	peers     []chan int
	total     int
	wg        sync.WaitGroup
}

// The sanctioned pattern: pool workers started once, each running one
// message per iteration of a range over its start channel, writing only its
// own indexed slot or worker-local state and signalling Done once per
// iteration. Closing the channels stops them.
func (e *engine2) start(workers int) {
	e.peers = make([]chan int, workers)
	for w := range e.peers {
		ch := make(chan int, 1)
		e.peers[w] = ch
		go func() {
			for v := range ch {
				local := v
				local++
				e.perWorker[w] = append(e.perWorker[w], local)
				e.wg.Done()
			}
		}()
	}
}

func (e *engine2) step(v int) {
	e.wg.Add(len(e.peers))
	for _, ch := range e.peers {
		ch <- v
	}
	e.wg.Wait()
}

func (e *engine2) stop() {
	for _, ch := range e.peers {
		close(ch)
	}
	e.peers = nil
}

// A range loop that signals by closing a channel when it ends, or that may
// signal more than once per message, is not a pool worker.
func (e *engine2) collect(ch chan int, done chan struct{}) {
	go func() { // want `not a pool worker`
		sum := 0
		for v := range ch {
			sum += v
		}
		e.total = sum
		close(done)
	}()
	go func() { // want `once per iteration`
		for v := range ch {
			if v > 0 {
				e.wg.Done()
			}
			e.wg.Done()
		}
	}()
}
