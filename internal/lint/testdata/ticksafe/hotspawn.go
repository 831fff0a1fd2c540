//lintfixture:package truenorth/internal/chip
package chip

// StepDense launches a goroutine per core every tick: outside the Compass
// engine any launch is a finding, and on the tick path it is also the
// per-tick cost a pool started at construction avoids.
func StepDense(cores []int) {
	for range cores {
		go func() { // want `goroutine launch in kernel package truenorth/internal/chip`
			_ = cores
		}()
	}
}
