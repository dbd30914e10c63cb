module godcdo/benchmark

go 1.22

require godcdo v0.0.0

replace godcdo => ../
