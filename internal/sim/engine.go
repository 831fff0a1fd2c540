package sim

import (
	"fmt"
	"sort"
	"sync"

	"truenorth/internal/core"
	"truenorth/internal/router"
)

// Options is the engine-neutral construction configuration shared by every
// kernel expression. Individual engines consume the fields that apply to
// them and document the ones they ignore, so call sites stay
// engine-agnostic: the same option list works whether the model runs on the
// silicon model or the parallel simulator.
type Options struct {
	// Workers is the parallel worker count. 0 selects the engine's default
	// (GOMAXPROCS for Compass); the single-threaded chip model accepts and
	// ignores it.
	Workers int
}

// Option configures engine construction.
type Option func(*Options)

// BuildOptions folds opts over the defaults. Engine constructors call this;
// applications only construct Option values.
func BuildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithWorkers sets the worker (thread) count for engines with a parallel
// compute phase. 0 (the default) means the engine's own default; values
// below 0 are treated as 1. The canonical chip model is defined to be
// single-threaded — it accepts this option and ignores it, so that a
// worker-tuned call site can switch engines without edits.
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// Factory constructs one engine expression over a mesh and its row-major
// core configurations.
type Factory func(mesh router.Mesh, configs []*core.Config, opts ...Option) (Engine, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
	names      []string // registry's keys, sorted
)

// Register makes an engine expression available to NewEngine under name.
// Engine packages self-register from init, so importing an engine package
// (directly or blank) is what populates the registry — the database/sql
// driver pattern. Register panics on a duplicate or empty name: both are
// build-time wiring mistakes.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("sim: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic("sim: duplicate engine registration " + name)
	}
	registry[name] = f
	names = append(names, name)
	sort.Strings(names)
}

// NewEngine constructs the named engine expression. It is the single
// construction path for tools and services: the engine name is data (a
// flag, a JSON field), not a compiled-in switch.
func NewEngine(name string, mesh router.Mesh, configs []*core.Config, opts ...Option) (Engine, error) {
	registryMu.RLock()
	f := registry[name]
	registryMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("sim: unknown engine %q (have %v)", name, EngineNames())
	}
	return f(mesh, configs, opts...)
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return append([]string(nil), names...)
}
