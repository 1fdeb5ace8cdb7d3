module powl/cmd/owlbench

go 1.22

require powl v0.0.0

replace powl => ../..
