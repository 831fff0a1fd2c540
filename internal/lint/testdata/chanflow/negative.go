package runtime

import "sync"

type okFeed struct {
	mu  sync.Mutex
	out chan int
}

// run sends and closes in one body: the send is ordered before the close,
// and a single close site is the ownership ideal.
func (f *okFeed) run() {
	f.out <- 1
	close(f.out)
}

// A local channel sent to before its one close: no finding.
func localChan() {
	ch := make(chan int, 1)
	ch <- 1
	close(ch)
}

// calm helpers do not block; holding the lock across them is fine.
func (f *okFeed) update() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.compute(2)
}

func (f *okFeed) compute(v int) int { return v * v }
