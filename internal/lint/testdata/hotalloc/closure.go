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
	// The launch itself is ticksafe's finding; its body is still hot code.
	for range cores {
		go func() {
			_ = make([]int, 8) // want `make on the per-tick path`
		}()
	}
}
