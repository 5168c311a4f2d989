package noise

import (
	"fmt"
	"math"
	"testing"

	"topkagg/internal/gen"
)

// assertGridExactParity runs the model's fixpoint with the flat-grid
// screen enabled and disabled, at one and at eight sweep workers, and
// requires every published number to match bit for bit: the grid is a
// work-discarding device, never a value source, so any ulp of
// divergence is a soundness bug in the screen, not noise.
func assertGridExactParity(t *testing.T, m *Model) {
	t.Helper()
	type run struct {
		name string
		an   *Analysis
	}
	var runs []run
	for _, w := range []int{1, 8} {
		g, err := m.WithWorkers(w).Run(nil)
		if err != nil {
			t.Fatalf("grid run (workers=%d): %v", w, err)
		}
		exact := m.WithWorkers(w)
		exact.exactWaveforms = true
		e, err := exact.Run(nil)
		if err != nil {
			t.Fatalf("exact run (workers=%d): %v", w, err)
		}
		runs = append(runs,
			run{fmt.Sprintf("grid-w%d", w), g},
			run{fmt.Sprintf("exact-w%d", w), e})
	}
	ref := runs[0]
	for _, r := range runs[1:] {
		if d := analysisDiff(r.an, ref.an); d != "" {
			t.Fatalf("%s vs %s: %s", r.name, ref.name, d)
		}
	}
}

// analysisDiff returns "" when a and b are bit-identical in every
// published number — iteration count, convergence, per-net noise and
// every noisy timing window — and otherwise describes the first
// difference.
func analysisDiff(a, b *Analysis) string {
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		return fmt.Sprintf("iterations/converged %d/%v vs %d/%v", a.Iterations, a.Converged, b.Iterations, b.Converged)
	}
	if len(a.NetNoise) != len(b.NetNoise) || len(a.Timing.Windows) != len(b.Timing.Windows) {
		return fmt.Sprintf("sizes %d/%d vs %d/%d", len(a.NetNoise), len(a.Timing.Windows), len(b.NetNoise), len(b.Timing.Windows))
	}
	for n := range a.NetNoise {
		if math.Float64bits(a.NetNoise[n]) != math.Float64bits(b.NetNoise[n]) {
			return fmt.Sprintf("NetNoise[%d] = %v vs %v", n, a.NetNoise[n], b.NetNoise[n])
		}
	}
	for n, aw := range a.Timing.Windows {
		bw := b.Timing.Windows[n]
		if math.Float64bits(aw.EAT) != math.Float64bits(bw.EAT) ||
			math.Float64bits(aw.LAT) != math.Float64bits(bw.LAT) ||
			math.Float64bits(aw.Slew) != math.Float64bits(bw.Slew) {
			return fmt.Sprintf("window[%d] = %+v vs %+v", n, aw, bw)
		}
	}
	return ""
}

// TestGridExactParitySeededCircuits sweeps 50 seeded random circuits
// of varied size and coupling density through the parity check. Run
// under -race this doubles as the worker-invariance certificate for
// the grid kernel.
func TestGridExactParitySeededCircuits(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		c, err := gen.Build(gen.Spec{
			Name:      fmt.Sprintf("parity%d", seed),
			Gates:     20 + (seed*7)%60,
			Couplings: 30 + (seed*13)%150,
			Seed:      int64(2000 + seed),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertGridExactParity(t, NewModel(c))
	}
}

// TestGridExactParityPerKCircuits runs the parity check on the small
// circuits (14 gates, 16 couplings, seeds 601-612) that top-k curves
// were once compared on end to end: with rescoring off, a curve
// depends on the fixpoint only through the all-couplings Analysis
// compared here, so its bit-identity carries the curves'.
func TestGridExactParityPerKCircuits(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		c, err := gen.Build(gen.Spec{Name: "gridperk", Gates: 14, Couplings: 16, Seed: int64(600 + seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", 600+seed, err)
		}
		assertGridExactParity(t, NewModel(c))
	}
}

// TestGridExactParityScale runs the parity check on the scaling
// generator's circuits, whose nanosecond-scale windows and deeper
// aggressor fan-in exercise the memoized-reciprocal fallback and the
// 64-bit skip word harder than the paper mirrors do.
func TestGridExactParityScale(t *testing.T) {
	sizes := []int{1000, 10000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		c, err := gen.Scale(n)
		if err != nil {
			t.Fatalf("scale %d: %v", n, err)
		}
		assertGridExactParity(t, NewModel(c))
	}
}
