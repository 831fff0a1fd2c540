//lintfixture:package truenorth/internal/compass
package compass

import "sync"

type engine struct {
	outputs []int
	wg      sync.WaitGroup
}

// A pool worker of the sanctioned shape that appends to one shared buffer:
// every worker writes the same field.
func (e *engine) start(workers int) []chan int {
	peers := make([]chan int, workers)
	for w := range peers {
		ch := make(chan int, 1)
		peers[w] = ch
		go func() {
			for v := range ch {
				e.outputs = append(e.outputs, v) // want `data race`
				e.wg.Done()
			}
		}()
	}
	return peers
}
