module demosmp/bench

go 1.22

require demosmp v0.0.0

replace demosmp => ../../
