module strudel/bench

go 1.22

require strudel v0.0.0

replace strudel => ../
