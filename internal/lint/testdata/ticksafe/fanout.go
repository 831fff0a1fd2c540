//lintfixture:package truenorth/internal/netgen
package netgen

import "sync"

// build fans a one-off construction out over workers, each writing only its
// own indexed slots: the sanctioned shape outside the Compass engine.
func build(n, workers int) []int {
	out := make([]int, n)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i] = i * i
			}
		}()
	}
	wg.Wait()
	return out
}

// buildShared has every worker write one captured counter.
func buildShared(n, workers int) int {
	total := 0
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total += w // want `data race`
		}()
	}
	wg.Wait()
	return total
}

func work(wg *sync.WaitGroup) { wg.Done() }

// buildNamed launches a named function, whose writes the check cannot see.
func buildNamed(workers int) {
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go work(&wg) // want `construction fan-out must be an inline func literal`
	}
	wg.Wait()
}
