package runtime

import "sync"

// forkJoin is the compass Step shape: Add before each spawn, Done inside,
// Wait at the barrier. The protocol held — no findings.
func forkJoin(workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

type span struct{}

func (s *span) Done() {}

// finish Dones a tracer span on a goroutine: Done without any WaitGroup
// pairing is not WaitGroup protocol and stays silent.
func finish(s *span) {
	go func() {
		defer s.Done()
	}()
}

type pool struct {
	peers []chan int
	wg    sync.WaitGroup
}

// start is the compass worker pool: each worker Dones once per message on
// its start channel, and the Add belongs before the send (step), not
// before the spawn. No findings.
func (p *pool) start(workers int) {
	for w := 0; w < workers; w++ {
		ch := make(chan int, 1)
		p.peers = append(p.peers, ch)
		go func() {
			for range ch {
				p.wg.Done()
			}
		}()
	}
}

func (p *pool) step() {
	p.wg.Add(len(p.peers))
	for _, ch := range p.peers {
		ch <- 1
	}
	p.wg.Wait()
}

// startAndStep starts the pool, adds a worker inline and runs the first
// phase in one function: neither the helper's Dones nor the inline worker's
// are owed to a spawn. No findings.
func (p *pool) startAndStep(workers int) {
	p.start(workers)
	ch := make(chan int, 1)
	p.peers = append(p.peers, ch)
	go func() {
		for range ch {
			p.wg.Done()
		}
	}()
	p.wg.Add(len(p.peers))
	for _, ch := range p.peers {
		ch <- 1
	}
	p.wg.Wait()
}
