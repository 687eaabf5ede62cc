module modelcc/cmd/bench

go 1.24

require modelcc v0.0.0

replace modelcc => ../..
