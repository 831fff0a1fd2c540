package sim

import (
	"fmt"
	"reflect"

	"truenorth/internal/core"
	"truenorth/internal/router"
)

// Arm is what Lockstep reads of an engine: every Engine is one, and so is a
// test's reference expression that has only these methods.
type Arm interface {
	Step()
	Tick() uint64
	DrainOutputs() []OutputSpike
	NoC() NoCStats
	Cores() []*core.Core
	Mesh() router.Mesh
}

// Lockstep is the one-to-one equivalence check ("not a single spike
// mismatch"). It steps every engine ticks times and compares engines[1:]
// with engines[0] before the first step and after every step: the tick,
// the drained output spikes in order, the NoC statistics and every core's
// SaveState (potentials, delay ring, PRNG, fault flag and counters).
// before, if not nil, runs before each step with the number of steps taken
// so far, to feed or operate the engines. Lockstep returns the number of
// output spikes engines[0] emitted, so that a caller can reject a vacuous
// run, and the first divergence, naming the tick, engine, core and field.
func Lockstep(ticks int, before func(step int), engines ...Arm) (outputs int, err error) {
	ref := engines[0]
	for step := 0; ; step++ {
		want := ref.DrainOutputs()
		outputs += len(want)
		for i, e := range engines[1:] {
			if d := compare(e, ref, want); d != "" {
				at := fmt.Sprintf("after tick %d", ref.Tick()-1)
				if step == 0 {
					at = fmt.Sprintf("before tick %d", ref.Tick())
				}
				return outputs, fmt.Errorf("%s: engine %d (%T) diverged from engine 0 (%T): %s", at, i+1, e, ref, d)
			}
		}
		if step == ticks {
			return outputs, nil
		}
		if before != nil {
			before(step)
		}
		for _, e := range engines {
			e.Step()
		}
	}
}

// view is what compare holds equal besides the cores' states.
type view struct {
	Tick    uint64
	Outputs []OutputSpike
	NoC     NoCStats
	Mesh    router.Mesh
	Cores   int
}

// compare drains e's outputs and names the first field where e differs from
// ref, whose drained outputs are want; it returns "" if there is none.
func compare(e, ref Arm, want []OutputSpike) string {
	got, wantCores := e.Cores(), ref.Cores()
	g := view{e.Tick(), e.DrainOutputs(), e.NoC(), e.Mesh(), len(got)}
	w := view{ref.Tick(), want, ref.NoC(), ref.Mesh(), len(wantCores)}
	if d := diff(reflect.ValueOf(g), reflect.ValueOf(w)); d != "" {
		return d[1:]
	}
	for i, c := range wantCores {
		if gs, ws := state(got[i]), state(c); gs != ws {
			d := diff(reflect.ValueOf(gs), reflect.ValueOf(ws))
			return fmt.Sprintf("core %d (%d,%d) %s", i, i%w.Mesh.W, i/w.Mesh.W, d[1:])
		}
	}
	return ""
}

// state is c's SaveState, or the zero State of an unpopulated slot.
func state(c *core.Core) (s core.State) {
	if c != nil {
		s = c.SaveState()
	}
	return s
}

// diff names the first leaf where got differs from want, as a path below
// the value (".Cnt.SynEvents", ".V[37]", ".Ring[3][1]", ".Outputs[2].ID"),
// with both leaves.
func diff(got, want reflect.Value) string {
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if d := diff(got.Field(i), want.Field(i)); d != "" {
				return "." + got.Type().Field(i).Name + d
			}
		}
		return ""
	case reflect.Array, reflect.Slice:
		if got.Len() != want.Len() {
			return fmt.Sprintf(" has %d entries, engine 0 has %d", got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if d := diff(got.Index(i), want.Index(i)); d != "" {
				return fmt.Sprintf("[%d]%s", i, d)
			}
		}
		return ""
	}
	if got.Equal(want) {
		return ""
	}
	return fmt.Sprintf(" = %v, engine 0 has %v", got, want)
}
