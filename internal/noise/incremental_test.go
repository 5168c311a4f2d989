package noise

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"topkagg/internal/circuit"
	"topkagg/internal/gen"
)

func TestIncrementalNoChangeReturnsPrev(t *testing.T) {
	m := smallModel(t, 31)
	mask := AllMask(m.C)
	prev, err := m.Run(mask)
	if err != nil {
		t.Fatal(err)
	}
	an, st, err := m.RunIncremental(prev, mask, mask.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if an != prev || st.Affected != 0 || st.Full {
		t.Fatalf("no-change must short-circuit: %+v", st)
	}
}

func TestIncrementalNilPrevFallsBack(t *testing.T) {
	m := smallModel(t, 31)
	mask := AllMask(m.C)
	an, st, err := m.RunIncremental(nil, nil, mask)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || an == nil {
		t.Fatal("nil prev must run fully")
	}
}

// TestIncrementalMatchesFullOnSingleFix fixes one coupling at a time
// (every seventh) from the all-active base and requires RunIncremental
// to equal a cold Run of the same mask bit for bit.
func TestIncrementalMatchesFullOnSingleFix(t *testing.T) {
	m := smallModel(t, 33)
	all := AllMask(m.C)
	prev, err := m.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < m.C.NumCouplings(); id += 7 {
		mask := all.Clone()
		mask[id] = false
		want, err := m.Run(mask)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := m.RunIncremental(prev, all, mask)
		if err != nil {
			t.Fatal(err)
		}
		if d := analysisDiff(got, want); d != "" {
			t.Fatalf("fix %d: incremental vs cold: %s", id, d)
		}
	}
}

// TestQuickIncrementalMatchesFull toggles one or two random couplings
// on a sparse circuit and requires RunIncremental to equal a cold Run
// bit for bit, reporting a full run over every net whenever the mask
// really changed.
func TestQuickIncrementalMatchesFull(t *testing.T) {
	c, err := gen.Build(gen.Spec{Name: "inc", Gates: 50, Couplings: 25, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c)
	all := AllMask(c)
	prev, err := m.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mask := all.Clone()
		// Toggle 1-2 couplings.
		for i := 0; i < 1+r.Intn(2); i++ {
			mask[r.Intn(len(mask))] = r.Intn(2) == 0
		}
		want, err := m.Run(mask)
		if err != nil {
			return false
		}
		got, st, err := m.RunIncremental(prev, all, mask)
		if err != nil {
			return false
		}
		if got != prev {
			changed++
			if !st.Full || st.Affected != c.NumNets() {
				return false
			}
		}
		return analysisDiff(got, want) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("no trial changed the mask; the toggles never fixed a coupling")
	}
}

// TestRunIncrementalMatchesColdRun is the what-if contract: whatever
// the previous mask and whichever couplings toggle, RunIncremental
// answers bit for bit what a cold Run of the new mask computes — every
// net's noise, every timing window, the iteration count and the
// convergence flag. The circuits span dense coupling and a sparse
// circuit, where a toggle's fanout and coupling neighbourhood covers
// only a few nets.
func TestRunIncrementalMatchesColdRun(t *testing.T) {
	specs := []gen.Spec{
		{Name: "iprop", Gates: 40, Couplings: 70, Seed: 5},
		{Name: "iprop", Gates: 40, Couplings: 70, Seed: 13},
		{Name: "iprop", Gates: 40, Couplings: 70, Seed: 29},
		{Name: "inc", Gates: 50, Couplings: 25, Seed: 41},
	}
	for _, spec := range specs {
		c, err := gen.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(c)
		r := rand.New(rand.NewSource(spec.Seed))
		partial := NewMask(c)
		for i := range partial {
			partial[i] = r.Intn(3) != 0
		}
		for _, prevMask := range []Mask{nil, partial} {
			prev, err := m.Run(prevMask)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8; trial++ {
				mask := AllMask(c)
				if prevMask != nil {
					mask = prevMask.Clone()
				}
				var toggled []int
				for i := 0; i < 1+r.Intn(5); i++ {
					id := r.Intn(len(mask))
					mask[id] = !mask[id]
					toggled = append(toggled, id)
				}
				label := fmt.Sprintf("%s seed %d prev-partial=%v toggle %v", spec.Name, spec.Seed, prevMask != nil, toggled)
				got, st, err := m.RunIncremental(prev, prevMask, mask)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := m.Run(mask)
				if err != nil {
					t.Fatalf("%s: cold: %v", label, err)
				}
				if d := analysisDiff(got, want); d != "" {
					t.Fatalf("%s: incremental vs cold: %s", label, d)
				}
				if got != prev && (!st.Full || st.Affected != c.NumNets()) {
					t.Errorf("%s: stats %+v after a real change", label, st)
				}
			}
		}
	}
}

func TestDelayDelta(t *testing.T) {
	m := smallModel(t, 47)
	all := AllMask(m.C)
	prev, err := m.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	// Fixing (removing) any coupling cannot increase delay.
	delta, an, err := m.DelayDelta(prev, all, []circuit.CouplingID{0})
	if err != nil {
		t.Fatal(err)
	}
	if delta > 1e-9 {
		t.Fatalf("fixing a coupling increased delay by %g", delta)
	}
	if an == nil {
		t.Fatal("analysis missing")
	}
	// DelayDelta with a nil prevMask treats it as all-active.
	if _, _, err := m.DelayDelta(prev, nil, []circuit.CouplingID{1}); err != nil {
		t.Fatal(err)
	}
}
