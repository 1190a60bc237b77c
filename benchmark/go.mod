module tscds/benchmark

go 1.22

require tscds v0.0.0

replace tscds => ../
