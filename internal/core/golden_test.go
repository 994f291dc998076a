package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/topo"
)

// TestDimensionGeneratedGolden pins WINDIM's default path (pattern search
// over σ-AMVA) on three 48-class generated networks to recorded bits: the
// windows, Float64bits of the power, the evaluation count and the memo
// hits, serial and at Workers 2. The sparse = dense tests in internal/mva
// compare two implementations inside one build; this test compares a
// kernel edit against the numbers it must keep. A change to any constant
// below is a change of results, not a refactor.
//
// The constants are amd64 results: Go may fuse x*y+z into one rounding on
// other targets (arm64, ppc64le, s390x), which moves the last bits.
func TestDimensionGeneratedGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases := []struct {
		name        string
		build       func() (*netmodel.Network, error)
		windows     numeric.IntVector
		powerBits   uint64
		evaluations int
		cacheHits   int
	}{
		{
			name:        "mesh:96,48,48",
			build:       func() (*netmodel.Network, error) { return topo.Mesh(96, 48, 48, topo.GenConfig{Seed: 2}) },
			windows:     numeric.IntVector{1, 3, 4, 4, 3, 5, 3, 4, 4, 8, 6, 4, 3, 4, 4, 5, 4, 7, 3, 2, 3, 5, 3, 1, 4, 5, 4, 3, 2, 4, 2, 4, 3, 7, 5, 4, 1, 4, 5, 4, 8, 4, 9, 3, 2, 6, 2, 4},
			powerBits:   0x409a4d27061f650a,
			evaluations: 644,
			cacheHits:   253,
		},
		{
			name:        "scalefree:80,2,48",
			build:       func() (*netmodel.Network, error) { return topo.ScaleFree(80, 2, 48, topo.GenConfig{Seed: 2}) },
			windows:     numeric.IntVector{1, 4, 3, 1, 5, 5, 2, 2, 4, 2, 4, 5, 3, 3, 2, 4, 4, 3, 3, 4, 4, 3, 2, 4, 2, 5, 4, 1, 2, 2, 2, 1, 4, 2, 6, 3, 2, 5, 2, 1, 2, 2, 4, 2, 2, 2, 3, 3},
			powerBits:   0x40a27e91db935863,
			evaluations: 463,
			cacheHits:   232,
		},
		{
			name:        "clos:12,6,48",
			build:       func() (*netmodel.Network, error) { return topo.Clos(12, 6, 48, topo.GenConfig{Seed: 2}) },
			windows:     numeric.IntVector{3, 3, 1, 1, 1, 2, 2, 3, 1, 2, 2, 1, 2, 3, 2, 3, 2, 3, 2, 2, 3, 2, 2, 3, 1, 3, 1, 2, 3, 3, 3, 2, 3, 2, 1, 2, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 1, 2},
			powerBits:   0x40b1cc572fc6e45e,
			evaluations: 288,
			cacheHits:   229,
		},
	}
	for _, c := range cases {
		n, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, workers := range []int{1, 2} {
			res, err := Dimension(n, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if !res.Windows.Equal(c.windows) {
				t.Errorf("%s workers=%d: windows %v, want %v", c.name, workers, res.Windows, c.windows)
			}
			if got := math.Float64bits(res.Metrics.Power); got != c.powerBits {
				t.Errorf("%s workers=%d: power bits %#x (%v), want %#x (%v)", c.name, workers,
					got, res.Metrics.Power, c.powerBits, math.Float64frombits(c.powerBits))
			}
			if res.Search.Evaluations != c.evaluations || res.Search.CacheHits != c.cacheHits {
				t.Errorf("%s workers=%d: %d evaluations, %d cache hits; want %d, %d", c.name, workers,
					res.Search.Evaluations, res.Search.CacheHits, c.evaluations, c.cacheHits)
			}
		}
	}
}
