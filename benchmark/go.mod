module truenorth/benchmark

go 1.22

require truenorth v0.0.0

replace truenorth => ../
