module hyperline/bench

go 1.23

require hyperline v0.0.0

replace hyperline => ../
