module farm/bench

go 1.22

require farm v0.0.0

replace farm => ../
