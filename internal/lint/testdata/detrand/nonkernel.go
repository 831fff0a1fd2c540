//lintfixture:package truenorth/internal/apps/hmm
package hmm

// Non-kernel packages may use math/rand freely: no findings.

import "math/rand"

func ok() int { return rand.Intn(4) }
