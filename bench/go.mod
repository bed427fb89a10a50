module unistore/bench

go 1.24

require unistore v0.0.0

replace unistore => ../
