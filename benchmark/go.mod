module pprl/benchmark

go 1.22

require pprl v0.0.0

replace pprl => ../
