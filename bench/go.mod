module vdce/bench

go 1.24

require vdce v0.0.0

replace vdce => ../
