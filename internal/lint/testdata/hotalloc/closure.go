package chip

func StepDense(cores []int, visit func(func(int))) {
	// Hoisted above the loop: one closure for the whole tick. No finding.
	var cur int
	emit := func(v int) { cur += v }
	for i := range cores {
		cur = i
		visit(emit)
	}
	for i := range cores {
		visit(func(v int) { cur = i + v }) // want `closure every iteration`
	}
	// A goroutine launch allocates every tick, in a loop or not, and its
	// body is still hot code.
	for range cores {
		go func() { // want `goroutine launch on the per-tick path`
			_ = make([]int, 8) // want `make on the per-tick path`
		}()
	}
}
