module wtftm/benchmark

go 1.24

require wtftm v0.0.0

replace wtftm => ../
