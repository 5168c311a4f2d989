// Benchmarks regenerating the paper's evaluation artifacts, one per
// table/figure, plus ablations of the design choices called out in
// DESIGN.md. Sizes are reduced relative to cmd/experiments -full so
// that `go test -bench=.` completes in minutes; the full paper layout
// is produced by `go run ./cmd/experiments`.
package topkagg

import (
	"fmt"
	"sync"
	"testing"

	"topkagg/internal/bruteforce"
	"topkagg/internal/circuit"
	"topkagg/internal/core"
	"topkagg/internal/exp"
	"topkagg/internal/filter"
	"topkagg/internal/gen"
	"topkagg/internal/noise"
	"topkagg/internal/serve"
)

var (
	benchOnce sync.Once
	benchCkts map[string]*noise.Model
)

// benchModel returns a cached noise model for a named circuit.
func benchModel(b *testing.B, name string) *noise.Model {
	b.Helper()
	benchOnce.Do(func() {
		benchCkts = map[string]*noise.Model{}
		specs := []gen.Spec{
			{Name: "t1", Gates: 30, Couplings: 60, Seed: 77}, // Table 1 scale
		}
		for _, s := range specs {
			c, err := gen.Build(s)
			if err != nil {
				panic(err)
			}
			benchCkts[s.Name] = noise.NewModel(c)
		}
		for _, n := range []string{"i1", "i2", "i3", "i5"} {
			c, err := gen.BuildPaper(n)
			if err != nil {
				panic(err)
			}
			benchCkts[n] = noise.NewModel(c)
		}
	})
	m, ok := benchCkts[name]
	if !ok {
		b.Fatalf("no bench circuit %q", name)
	}
	return m
}

// BenchmarkTable1BruteForce measures the brute-force baseline of
// Table 1 at k=2 (C(60,2) = 1770 full noise-analysis runs). Together
// with BenchmarkTable1Proposed it reproduces the table's
// orders-of-magnitude runtime gap.
func BenchmarkTable1BruteForce(b *testing.B) {
	m := benchModel(b, "t1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bruteforce.Addition(m, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Proposed measures the proposed algorithm on the
// Table 1 circuit at the same k=2.
func BenchmarkTable1Proposed(b *testing.B) {
	m := benchModel(b, "t1")
	opt := core.Options{SlackFrac: 1, NoRescore: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKAddition(m, 2, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAddition is the Table 2(a) kernel: one top-k addition
// enumeration at k=10.
func benchAddition(b *testing.B, ckt string) {
	m := benchModel(b, ckt)
	opt := core.Options{NoRescore: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKAddition(m, 10, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchElimination is the Table 2(b) kernel: one top-k elimination
// enumeration at k=10.
func benchElimination(b *testing.B, ckt string) {
	m := benchModel(b, ckt)
	opt := core.Options{NoRescore: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TopKElimination(m, 10, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2aAddition_i1(b *testing.B) { benchAddition(b, "i1") }
func BenchmarkTable2aAddition_i2(b *testing.B) { benchAddition(b, "i2") }
func BenchmarkTable2aAddition_i3(b *testing.B) { benchAddition(b, "i3") }

func BenchmarkTable2bElimination_i1(b *testing.B) { benchElimination(b, "i1") }
func BenchmarkTable2bElimination_i3(b *testing.B) { benchElimination(b, "i3") }

// BenchmarkTable2RuntimeGrowth_k sweeps k on i1, reproducing the
// runtime-vs-k growth of Table 2's right half.
func BenchmarkTable2RuntimeGrowth(b *testing.B) {
	for _, k := range []int{1, 5, 10, 20} {
		b.Run(map[int]string{1: "k1", 5: "k5", 10: "k10", 20: "k20"}[k], func(b *testing.B) {
			m := benchModel(b, "i1")
			opt := core.Options{NoRescore: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TopKAddition(m, k, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Sweep measures a reduced Figure-10 sweep (i1, both
// modes, k=12, rescored curves).
func BenchmarkFig10Sweep(b *testing.B) {
	cfg := exp.Quick()
	cfg.Fig10Circuits = []string{"i1"}
	cfg.Fig10K = 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoiseFixpoint measures the reference iterative
// noise-analysis engine (the scenario evaluator everything else is
// built on).
func BenchmarkNoiseFixpoint(b *testing.B) {
	for _, ckt := range []string{"i1", "i3"} {
		b.Run(ckt, func(b *testing.B) {
			m := benchModel(b, ckt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFixpointZeroNameLookups measures the fixpoint while
// asserting the engine addresses nets by NetID alone: the circuit's
// name-map counter must not move across the entire timed loop. Net
// names are interned at construction; any per-iteration map lookup
// creeping back into the hot path fails the benchmark rather than
// just slowing it down.
func BenchmarkFixpointZeroNameLookups(b *testing.B) {
	m := benchModel(b, "i3")
	if _, err := m.Run(nil); err != nil { // warm the engine pool
		b.Fatal(err)
	}
	before := m.C.NameLookups()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := m.C.NameLookups() - before; got != 0 {
		b.Fatalf("fixpoint performed %d net-name map lookups across %d runs, want 0", got, b.N)
	}
}

// BenchmarkNoiseFixpointWorkers sweeps the sweep-parallelism worker
// count on the larger paper circuit. The result is byte-identical at
// every setting (see TestFixpointWorkerCountInvariant); only the wall
// clock changes, and only on multi-core hardware.
func BenchmarkNoiseFixpointWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("i3-w%d", workers), func(b *testing.B) {
			m := benchModel(b, "i3").WithWorkers(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation benches for the design choices in DESIGN.md §6.

// BenchmarkAblationDominance compares dominance pruning on vs off
// (off relies purely on the score-sorted beam).
func BenchmarkAblationDominance(b *testing.B) {
	for _, tc := range []struct {
		name string
		opt  core.Options
	}{
		{"on", core.Options{NoRescore: true}},
		{"off", core.Options{NoRescore: true, NoDominance: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := benchModel(b, "i1")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TopKAddition(m, 10, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPseudo compares pseudo-aggressor propagation on vs
// off (off restricts each victim to its own primaries).
func BenchmarkAblationPseudo(b *testing.B) {
	for _, tc := range []struct {
		name string
		opt  core.Options
	}{
		{"on", core.Options{NoRescore: true}},
		{"off", core.Options{NoRescore: true, NoPseudo: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := benchModel(b, "i1")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TopKAddition(m, 10, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBruteForceParallel measures the parallel baseline against
// the serial one (same Table 1 kernel, k=2).
func BenchmarkBruteForceParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4"}[workers], func(b *testing.B) {
			m := benchModel(b, "t1")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bruteforce.AdditionParallel(m, 2, 0, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFalseAggressorFilter measures the preprocessing filter.
func BenchmarkFalseAggressorFilter(b *testing.B) {
	m := benchModel(b, "i1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filter.FalseAggressors(m, filter.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVerifyTop measures verified selection against
// estimate-only selection (elimination, i1, k=8).
func BenchmarkAblationVerifyTop(b *testing.B) {
	for _, tc := range []struct {
		name string
		opt  core.Options
	}{
		{"off", core.Options{NoRescore: true}},
		{"v4", core.Options{NoRescore: true, VerifyTop: 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := benchModel(b, "i1")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TopKElimination(m, 8, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBeamWidth sweeps the irredundant-list cap.
func BenchmarkAblationBeamWidth(b *testing.B) {
	for _, w := range []int{8, 24, 64} {
		b.Run(map[int]string{8: "w8", 24: "w24", 64: "w64"}[w], func(b *testing.B) {
			m := benchModel(b, "i1")
			opt := core.Options{NoRescore: true, MaxListWidth: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TopKAddition(m, 10, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeAmortization measures the tentpole of the serve layer
// on the k-sweep workload: one top-k query per driven net, answered by
// (a) independent cold core.TopKAdditionAt calls, each repaying the
// full noise fixpoint and engine preparation, versus (b) one
// serve.Analyzer batch sharing the memoized fixpoint across all nets.
// The acceptance bar is cold/batch >= 2x; the win grows with coupling
// count (the fixpoint cost) and shrinks with k (the enumeration cost).
func BenchmarkServeAmortization(b *testing.B) {
	for _, tc := range []struct {
		ckt string
		k   int
	}{
		{"i2", 1}, // 222 gates, 706 couplings: screening sweep
		{"i5", 2}, // 204 gates, 1835 couplings: coupling-dense sweep
	} {
		m := benchModel(b, tc.ckt)
		opt := core.Options{NoRescore: true}
		var nets []circuit.NetID
		for id := 0; id < m.C.NumNets(); id++ {
			if m.C.Net(circuit.NetID(id)).Driver >= 0 {
				nets = append(nets, circuit.NetID(id))
			}
		}
		queries := serve.KSweep(serve.Addition, nets, tc.k)
		name := fmt.Sprintf("%s-k%d", tc.ckt, tc.k)
		b.Run(name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, n := range nets {
					if _, err := core.TopKAdditionAt(m, n, tc.k, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/batch-w%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a := serve.NewAnalyzer(m, opt)
					for _, r := range a.RunBatch(queries, workers) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			})
		}
	}
}
