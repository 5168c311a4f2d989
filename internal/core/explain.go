package core

import (
	"fmt"

	"topkagg/internal/circuit"
	"topkagg/internal/noise"
)

// Contribution quantifies one coupling's measured marginal effect
// within a selected set.
type Contribution struct {
	Coupling circuit.CouplingID
	// Marginal is the leave-one-out effect: the measured circuit-delay
	// change from toggling just this coupling while the rest of the
	// set stays applied. Members that matter only in combination still
	// show a large Marginal (removing them breaks the combination).
	Marginal float64
	// Solo is the coupling's effect acting alone against the baseline.
	// A member with Solo ≈ 0 but a large Marginal is a pure
	// combination player (the paper's Fig.-4 situation).
	Solo float64
}

// Explanation breaks a selected set down into verified per-coupling
// marginals — the designer-facing answer to "why these k?".
type Explanation struct {
	// Delay is the measured circuit delay with the whole set applied.
	Delay float64
	// Contributions are ordered largest-marginal first.
	Contributions []Contribution
	// Synergy is the set's total effect minus the sum of the members'
	// Solo effects: the part that only appears when the couplings act
	// together (the paper's Fig.-4 combination effect). Positive
	// synergy means the set is worth more than the sum of its parts.
	Synergy float64
	// Baseline is the reference delay the marginals are measured
	// against: the noiseless delay for addition sets, the all-coupling
	// noisy delay for elimination sets.
	Baseline float64
}

// ExplainAddition measures each member's marginal contribution to an
// addition set by re-running the reference engine with that member
// deactivated (leave-one-out).
func ExplainAddition(m *noise.Model, ids []circuit.CouplingID) (*Explanation, error) {
	return explain(m, ids, addition)
}

// ExplainElimination measures each member's marginal contribution to
// an elimination set by re-running the reference engine with that
// member kept in the design (leave-one-in).
func ExplainElimination(m *noise.Model, ids []circuit.CouplingID) (*Explanation, error) {
	return explain(m, ids, elimination)
}

func explain(m *noise.Model, ids []circuit.CouplingID, md mode) (*Explanation, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: explain: empty set")
	}
	fullMask := func() noise.Mask {
		if md == addition {
			return noise.MaskOf(m.C, ids)
		}
		return noise.WithoutMask(m.C, ids)
	}()
	withSet, err := m.Run(fullMask)
	if err != nil {
		return nil, err
	}
	baseMask := noise.NewMask(m.C)
	if md == elimination {
		baseMask = noise.AllMask(m.C)
	}
	baseline, err := m.Run(baseMask)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Delay: withSet.CircuitDelay(), Baseline: baseline.CircuitDelay()}
	soloSum := 0.0
	for _, id := range ids {
		// Leave-one-out against the full set.
		loo := fullMask.Clone()
		loo[id] = !loo[id] // addition: deactivate; elimination: reactivate
		an, err := m.Run(loo)
		if err != nil {
			return nil, err
		}
		var marginal float64
		if md == addition {
			marginal = withSet.CircuitDelay() - an.CircuitDelay()
		} else {
			marginal = an.CircuitDelay() - withSet.CircuitDelay()
		}
		if marginal < 0 {
			marginal = 0 // fixpoint tolerance jitter
		}
		// Solo against the baseline.
		solo := baseMask.Clone()
		solo[id] = !solo[id]
		sa, err := m.Run(solo)
		if err != nil {
			return nil, err
		}
		var soloEffect float64
		if md == addition {
			soloEffect = sa.CircuitDelay() - ex.Baseline
		} else {
			soloEffect = ex.Baseline - sa.CircuitDelay()
		}
		if soloEffect < 0 {
			soloEffect = 0
		}
		ex.Contributions = append(ex.Contributions, Contribution{Coupling: id, Marginal: marginal, Solo: soloEffect})
		soloSum += soloEffect
	}
	sortContributions(ex.Contributions)
	var total float64
	if md == addition {
		total = ex.Delay - ex.Baseline
	} else {
		total = ex.Baseline - ex.Delay
	}
	ex.Synergy = total - soloSum
	return ex, nil
}

func sortContributions(cs []Contribution) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0; j-- {
			if cs[j].Marginal > cs[j-1].Marginal ||
				(cs[j].Marginal == cs[j-1].Marginal && cs[j].Coupling < cs[j-1].Coupling) {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			} else {
				break
			}
		}
	}
}
