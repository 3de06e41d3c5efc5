module sdnfv/cmd/sdnfv-bench

go 1.24

require sdnfv v0.0.0

replace sdnfv => ../..
