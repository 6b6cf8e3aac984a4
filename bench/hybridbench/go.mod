module hybriddb/bench/hybridbench

go 1.22

require hybriddb v0.0.0

replace hybriddb => ../..
