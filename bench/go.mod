module gridsched/bench

go 1.24

require gridsched v0.0.0

replace gridsched => ../
