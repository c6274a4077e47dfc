module turbobp/bench

go 1.22

require turbobp v0.0.0

replace turbobp => ../
