package noise

import (
	"topkagg/internal/budget"
	"topkagg/internal/circuit"
)

// IncrementalStats reports what an incremental run actually did.
type IncrementalStats struct {
	// Affected is the number of nets whose noise was recomputed: every
	// net when a coupling changed, none when prev was returned as is.
	Affected int
	// Full reports whether a fixpoint ran (any coupling changed, or
	// there was no prev to reuse).
	Full bool
}

// RunIncremental re-evaluates the noise fixpoint after the active
// coupling mask changed from prevMask (the mask prev was computed
// with) to mask. When no coupling changed it returns prev itself;
// otherwise it runs the fixpoint cold under mask, so the result is
// bit-identical to Run(mask). This is the engine for what-if loops
// (shield this, re-check that).
//
// Like Run, RunIncremental never writes to the model, the circuit,
// prev or the masks; many incremental analyses may share one prev
// concurrently.
func (m *Model) RunIncremental(prev *Analysis, prevMask, mask Mask) (*Analysis, IncrementalStats, error) {
	return m.RunIncrementalBudget(nil, prev, prevMask, mask)
}

// RunIncrementalBudget is the budget-carrying form of RunIncremental;
// a nil budget runs unbounded.
func (m *Model) RunIncrementalBudget(b *budget.B, prev *Analysis, prevMask, mask Mask) (*Analysis, IncrementalStats, error) {
	defer m.Obs.Span("noise.run_incremental").End()
	if m.Obs != nil {
		m.Obs.Counter("noise.incremental.runs").Inc()
	}
	if prev != nil && !masksDiffer(m.C, prevMask, mask) {
		return prev, IncrementalStats{}, nil
	}
	an, err := m.RunBudget(b, mask)
	return an, IncrementalStats{Affected: m.C.NumNets(), Full: true}, err
}

// masksDiffer reports whether any coupling's activation differs
// between the two masks.
func masksDiffer(c *circuit.Circuit, a, b Mask) bool {
	for i := 0; i < c.NumCouplings(); i++ {
		id := circuit.CouplingID(i)
		if a.Active(id) != b.Active(id) {
			return true
		}
	}
	return false
}

// DelayDelta is a convenience for what-if loops: the circuit-delay
// change from prev after toggling the given couplings off (fix) or on
// (unfix).
func (m *Model) DelayDelta(prev *Analysis, prevMask Mask, fix []circuit.CouplingID) (float64, *Analysis, error) {
	var mask Mask
	if prevMask == nil {
		mask = AllMask(m.C)
	} else {
		mask = prevMask.Clone()
	}
	for _, id := range fix {
		mask[id] = !mask[id]
	}
	an, _, err := m.RunIncremental(prev, prevMask, mask)
	if err != nil {
		return 0, nil, err
	}
	return an.CircuitDelay() - prev.CircuitDelay(), an, nil
}
