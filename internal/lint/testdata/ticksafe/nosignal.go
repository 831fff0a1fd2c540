//lintfixture:package truenorth/internal/compass
package compass

func bad() {
	go func() { println("fire and forget") }() // want `not a pool worker`
}
