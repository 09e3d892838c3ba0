module polystyrene/bench

go 1.24

require polystyrene v0.0.0

replace polystyrene => ../
