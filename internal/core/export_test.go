package core

// SynLayout exposes the word-path eligibility proof's configuration half to
// the external tests, which build cores with netgen and the apps.
func (c *Core) SynLayout() (static bool, vLo, vHi int32) { return c.wordSynStatic, c.vLo, c.vHi }

// SynPhaseBounds exposes synPhaseBounds.
var SynPhaseBounds = synPhaseBounds
