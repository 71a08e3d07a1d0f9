// The benchmark is a module of its own, built from this directory. It takes
// the repository it measures from the parent directory; its module path sits
// under wavetile/ so that it may import wavetile/internal/... .
module wavetile/benchmarks

go 1.22

require wavetile v0.0.0

replace wavetile => ../
