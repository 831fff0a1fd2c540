package sim

import (
	"testing"

	"truenorth/internal/core"
	"truenorth/internal/router"
)

// QueuedEvents counts the injections waiting in the beyond-ring queue from
// the queue itself, not from the count the cap reads, for the
// engine-contract tests, which reach it through the engines that embed the
// substrate.
func (s *Substrate) QueuedEvents() (n int) {
	for _, inj := range s.pending {
		n += len(inj)
	}
	return n
}

func TestPartitionCoversAllCores(t *testing.T) {
	configs := make([]*core.Config, 16)
	for i := range configs {
		if i != 5 { // a hole
			configs[i] = core.InertConfig()
			configs[i].Seed = uint16(i*i + 1) // uneven weights
		}
	}
	s, err := NewSubstrate("test", router.Mesh{W: 4, H: 4}, configs, 3, func(c *core.Core) float64 { return float64(c.Cfg.Seed) })
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w < s.Workers(); w++ {
		if a, b := s.parts[w-1], s.parts[w]; a.hi <= a.lo || b.hi <= b.lo || b.lo < a.hi {
			t.Fatalf("parts %d and %d cover [%d, %d) and [%d, %d)", w-1, w, a.lo, a.hi, b.lo, b.hi)
		}
	}
	for i, o := range s.owner {
		if p := s.Part(int(o)); (configs[i] == nil) != (o == -1) || (p != nil && (i < p.lo || i >= p.hi)) {
			t.Fatalf("slot %d (populated %v) is owned by part %d", i, configs[i] != nil, o)
		}
	}
	if s.Workers() != 3 {
		t.Fatalf("%d parts, want 3", s.Workers())
	}
}
