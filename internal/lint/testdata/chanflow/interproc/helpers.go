//lintfixture:package truenorth/internal/serve
package serve

// Shut closes its channel parameter one call deeper; delegating a close
// through it is still a close site of the caller's channel, and the close
// itself is not the owner's.
func Shut(ch chan int) {
	stop(ch)
}

func stop(ch chan int) {
	close(ch) // want `close of channel parameter "ch"`
}

// Push sends; a caller holding a lock across it stalls every goroutine
// wanting that lock.
func Push(ch chan int, v int) {
	ch <- v
}
