// Package truenorth reproduces "Real-time Scalable Cortical Computing at
// 46 Giga-Synaptic OPS/Watt with ~100x Speedup in Time-to-Solution and
// ~100,000x Reduction in Energy-to-Solution" (Cassidy et al., SC 2014): the
// TrueNorth neurosynaptic processor and the Compass parallel simulator —
// two functionally one-to-one expressions of the same event-driven
// neurosynaptic kernel — together with the characterization networks,
// computer-vision applications, energy/performance models, and experiment
// harnesses that regenerate every table and figure of the paper's
// evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-versus-measured
// results. cmd/tnexp prints any of the evaluation tables by name.
package truenorth
