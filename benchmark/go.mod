// The benchmark is a module of its own so that it builds from its own
// directory; the replace keeps it on the checkout's code, and the module
// path under repro/ is what lets it import repro/internal/....
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
