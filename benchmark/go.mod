module github.com/perigee-net/perigee/benchmark

go 1.22

require github.com/perigee-net/perigee v0.0.0

replace github.com/perigee-net/perigee => ../
