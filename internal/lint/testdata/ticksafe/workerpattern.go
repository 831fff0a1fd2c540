//lintfixture:package truenorth/internal/compass
package compass

import "sync"

type engine2 struct {
	perWorker [][]int
	total     int
}

// The sanctioned pattern: wg-managed inline workers writing only their own
// indexed slot or worker-local state. A worker that signals by closing a
// channel is not part of it.
func (e *engine2) step(workers int, ch chan int) {
	done := make(chan struct{})
	go func() { // want `no completion signal`
		sum := 0
		for v := range ch {
			sum += v
		}
		e.total = sum
		close(done)
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := 0
			local++
			e.perWorker[w] = append(e.perWorker[w], local)
		}(w)
	}
	wg.Wait()
	close(ch)
	<-done
}
