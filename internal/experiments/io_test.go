package experiments

import (
	"testing"

	"mssg/internal/obs"
)

// TestIOEngineSharedCacheReportsMetrics: the io ablation's shared SLRU
// caches are created by the experiment, not by grDB, so the experiment
// must label them; otherwise their promotions and hits read zero.
func TestIOEngineSharedCacheReportsMetrics(t *testing.T) {
	p := tinyParams(t)
	p.Metrics = true
	if _, err := IOEngine(p); err != nil {
		t.Fatalf("IOEngine: %v", err)
	}
	snap := obs.Default().Snapshot()
	for _, row := range []string{"shared-slru", "all"} {
		for _, c := range []string{"hits", "misses", "promotions", "creates"} {
			name := "cache.io-" + row + "." + c
			if snap.Counters[name] == 0 {
				t.Errorf("%s = 0", name)
			}
		}
	}
}
