package chip

type eng struct {
	outputs []int
	reused  []int
	outbox  [][]int
	grid    [][][]int
}

func (e *eng) Run(xs []int) {
	for _, x := range xs {
		e.outputs = append(e.outputs, x) // want `never reslice-reused`
		// reused is reset with [:0] in drain: growth amortizes to zero.
		e.reused = append(e.reused, x)
	}
	// A local alias inherits the reset of the buffer it aliases.
	out := e.outbox[0]
	for _, x := range xs {
		out = append(out, x)
	}
	e.outbox[0] = out
	// So does one reset through a range variable over the buffer.
	cell := e.grid[0][1]
	for _, x := range xs {
		cell = append(cell, x)
	}
	e.grid[0][1] = cell
}

func (e *eng) drain() []int {
	got := append([]int(nil), e.reused...)
	e.reused = e.reused[:0]
	e.outbox[0] = e.outbox[0][:0]
	for _, row := range e.grid {
		for w, cell := range row {
			row[w] = cell[:0]
		}
	}
	return got
}
