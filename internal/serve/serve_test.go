package serve

import (
	"math"
	"strings"
	"sync"
	"testing"

	"topkagg/internal/cell"
	"topkagg/internal/circuit"
	"topkagg/internal/core"
	"topkagg/internal/gen"
	"topkagg/internal/netlist"
	"topkagg/internal/noise"
)

const small = `circuit small
output y
gate g1 NAND2_X1 a b -> n1
gate g2 INV_X1 n1 -> n2
gate g3 INV_X1 n2 -> y
gate h1 INV_X1 c -> m1
gate h2 INV_X1 d -> m2
couple n1 m1 2.5
couple n2 m2 1.8
couple y m1 1.2
`

func smallModel(t *testing.T) *noise.Model {
	t.Helper()
	c, err := netlist.ParseString(small, cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	return noise.NewModel(c)
}

// TestBatchMatchesColdCalls pins the contract that an Analyzer answer
// is the same answer a cold core call produces.
func TestBatchMatchesColdCalls(t *testing.T) {
	m := smallModel(t)
	opt := core.Options{SlackFrac: 1}
	a := NewAnalyzer(m, opt)
	y, _ := m.C.NetByName("y")

	queries := []Query{
		{Op: Addition, Net: WholeCircuit, K: 2},
		{Op: Elimination, Net: WholeCircuit, K: 2},
		{Op: Addition, Net: y, K: 2},
		{Op: Addition, Net: WholeCircuit, K: 2}, // repeat: must hit the cache
	}
	resps := a.RunBatch(queries, 2)
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}

	cold, err := core.TopKAddition(m, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(resps[0].Result, cold) {
		t.Fatalf("batch addition differs from cold call:\n%+v\nvs\n%+v", resps[0].Result.PerK, cold.PerK)
	}
	coldAt, err := core.TopKAdditionAt(m, y, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(resps[2].Result, coldAt) {
		t.Fatal("batch per-net addition differs from cold call")
	}
	coldElim, err := core.TopKElimination(m, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(resps[1].Result, coldElim) {
		t.Fatal("batch elimination differs from cold call")
	}

	if resps[0].Result.Stats.CacheMisses != 1 || resps[0].Result.Stats.CacheHits != 0 {
		t.Fatalf("first query must be a cache miss: %+v", resps[0].Result.Stats)
	}
	if resps[3].Result.Stats.CacheHits != 1 {
		t.Fatalf("repeated query must be a cache hit: %+v", resps[3].Result.Stats)
	}

	st := a.Stats()
	if st.Queries != 4 || st.FixpointRuns != 1 {
		t.Fatalf("stats = %+v, want 4 queries over 1 fixpoint", st)
	}
	if st.PrepMisses != 3 || st.PrepHits != 1 {
		t.Fatalf("stats = %+v, want 3 prep misses + 1 hit", st)
	}
}

// TestWhatIf checks scenario queries against direct reference runs.
func TestWhatIf(t *testing.T) {
	m := smallModel(t)
	a := NewAnalyzer(m, core.Options{})

	// Fixing nothing = the all-aggressor delay.
	r := a.Do(Query{Op: WhatIf, Net: WholeCircuit})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	full, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay != full.CircuitDelay() {
		t.Fatalf("empty what-if delay %g, want %g", r.Delay, full.CircuitDelay())
	}

	// Fixing everything = the cold run with no coupling active.
	all := []circuit.CouplingID{0, 1, 2}
	r = a.Do(Query{Op: WhatIf, Net: WholeCircuit, Fix: all})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	quiet, err := m.Run(noise.WithoutMask(m.C, all))
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay != quiet.CircuitDelay() {
		t.Fatalf("full fix delay %g, reference %g", r.Delay, quiet.CircuitDelay())
	}
	if r.Delay >= full.CircuitDelay() {
		t.Fatal("fixing all couplings must reduce the delay")
	}
}

// TestWhatIfMatchesColdRun pins what-if answers to the cold fixpoint
// bit for bit: for every single-coupling fix and a few multi-coupling
// ones, on a dense and on a sparse circuit, the served delay (circuit
// and per-net) is exactly what Run computes for the fixed mask.
func TestWhatIfMatchesColdRun(t *testing.T) {
	for _, spec := range []gen.Spec{
		{Name: "dense", Gates: 30, Couplings: 60, Seed: 77},
		{Name: "sparse", Gates: 50, Couplings: 25, Seed: 41},
	} {
		c, err := gen.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := noise.NewModel(c)
		a := NewAnalyzer(m, core.Options{})
		target := c.POs()[0]
		var fixes [][]circuit.CouplingID
		for id := 0; id < c.NumCouplings(); id++ {
			fixes = append(fixes, []circuit.CouplingID{circuit.CouplingID(id)})
		}
		fixes = append(fixes, []circuit.CouplingID{0, 3, 7}, []circuit.CouplingID{1, 2, 4, 8, 16})
		for _, fix := range fixes {
			cold, err := m.Run(noise.WithoutMask(c, fix))
			if err != nil {
				t.Fatal(err)
			}
			r := a.Do(Query{Op: WhatIf, Net: WholeCircuit, Fix: fix})
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if math.Float64bits(r.Delay) != math.Float64bits(cold.CircuitDelay()) {
				t.Fatalf("%s fix %v: what-if delay %v, cold run %v", spec.Name, fix, r.Delay, cold.CircuitDelay())
			}
			r = a.Do(Query{Op: WhatIf, Net: target, Fix: fix})
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if want := cold.Timing.Window(target).LAT; math.Float64bits(r.Delay) != math.Float64bits(want) {
				t.Fatalf("%s fix %v: what-if arrival at net %d %v, cold run %v", spec.Name, fix, target, r.Delay, want)
			}
		}
	}
}

// TestQueryValidation checks that malformed queries fail in their own
// Response without poisoning the batch.
func TestQueryValidation(t *testing.T) {
	m := smallModel(t)
	a := NewAnalyzer(m, core.Options{})
	resps := a.RunBatch([]Query{
		{Op: Addition, Net: WholeCircuit, K: 0},       // bad k
		{Op: Addition, Net: circuit.NetID(999), K: 1}, // bad net
		{Op: Op(42), K: 1},                            // bad op; Net zero value is net 0
		{Op: WhatIf, Fix: []circuit.CouplingID{99}},   // bad coupling
		{Op: Addition, Net: WholeCircuit, K: 1},       // fine
	}, 3)
	for i, want := range []string{"k >= 1", "no net", "unknown query op", "no coupling", ""} {
		if want == "" {
			if resps[i].Err != nil {
				t.Fatalf("query %d must succeed: %v", i, resps[i].Err)
			}
			continue
		}
		if resps[i].Err == nil || !strings.Contains(resps[i].Err.Error(), want) {
			t.Fatalf("query %d error = %v, want substring %q", i, resps[i].Err, want)
		}
	}
}

// TestEmptyBatch: a zero-length batch returns a zero-length response
// slice with any worker count.
func TestEmptyBatch(t *testing.T) {
	a := NewAnalyzer(smallModel(t), core.Options{})
	if got := a.RunBatch(nil, 8); len(got) != 0 {
		t.Fatalf("empty batch produced %d responses", len(got))
	}
	if st := a.Stats(); st.Queries != 0 {
		t.Fatalf("empty batch counted queries: %+v", st)
	}
}

// TestConcurrentSameKey hammers one cache key from many goroutines:
// the preparation must run exactly once and every caller must get the
// same answer (exercised under -race in CI).
func TestConcurrentSameKey(t *testing.T) {
	m := smallModel(t)
	a := NewAnalyzer(m, core.Options{SlackFrac: 1})
	const n = 16
	resps := make([]Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = a.Do(Query{Op: Elimination, Net: WholeCircuit, K: 2})
		}(i)
	}
	wg.Wait()
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("goroutine %d: %v", i, r.Err)
		}
		if !resultsEqual(r.Result, resps[0].Result) {
			t.Fatalf("goroutine %d result differs", i)
		}
	}
	if st := a.Stats(); st.FixpointRuns != 1 || st.PrepMisses != 1 {
		t.Fatalf("stats = %+v, want exactly one fixpoint and one preparation", st)
	}
}

// TestKSweep checks the sweep helper's query construction.
func TestKSweep(t *testing.T) {
	qs := KSweep(Addition, []circuit.NetID{3, WholeCircuit}, 5)
	if len(qs) != 2 || qs[0].Net != 3 || qs[1].Net != WholeCircuit || qs[0].K != 5 || qs[0].Op != Addition {
		t.Fatalf("KSweep = %+v", qs)
	}
}
