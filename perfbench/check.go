package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"

	"topkagg/internal/httpapi"
)

// checkQuery validates one query answer against its request. couplings
// is the coupling count of the design the query ran on. No limits are
// ever set, so every answer must be complete.
func checkQuery(req *httpapi.QueryRequest, status int, body []byte, couplings int) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var r httpapi.QueryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	op := req.Op
	if op != r.Op || req.Net != r.Net || (op != "whatif" && req.K != r.K) {
		return fmt.Errorf("answer echoes %s/%q/k=%d, request was %s/%q/k=%d", r.Op, r.Net, r.K, op, req.Net, req.K)
	}
	if r.Error != "" || r.Partial || r.Stopped != "" {
		return fmt.Errorf("incomplete answer: error=%q partial=%v stopped=%q", r.Error, r.Partial, r.Stopped)
	}
	if op == "whatif" {
		if !slices.Equal(r.Fix, req.Fix) {
			return fmt.Errorf("answer echoes fix %v, request was %v", r.Fix, req.Fix)
		}
		if r.DelayNs == nil || !finite(*r.DelayNs) || *r.DelayNs <= 0 {
			return fmt.Errorf("what-if delay missing or not a positive finite number")
		}
		return nil
	}
	res := r.Result
	if res == nil {
		return fmt.Errorf("top-k answer carries no result")
	}
	if res.K != req.K || len(res.PerK) != req.K {
		return fmt.Errorf("result has k=%d and %d sets, want %d", res.K, len(res.PerK), req.K)
	}
	if !finite(res.BaseDelayNs) || !finite(res.AllDelayNs) {
		return fmt.Errorf("non-finite base or all-aggressor delay")
	}
	for i, s := range res.PerK {
		if s.K != i+1 || len(s.IDs) != i+1 {
			return fmt.Errorf("perK[%d] has k=%d and %d ids, want %d", i, s.K, len(s.IDs), i+1)
		}
		for j, id := range s.IDs {
			if id < 0 || id >= couplings {
				return fmt.Errorf("perK[%d] id %d out of range [0,%d)", i, id, couplings)
			}
			if j > 0 && id <= s.IDs[j-1] {
				return fmt.Errorf("perK[%d] ids not sorted and distinct: %v", i, s.IDs)
			}
		}
		if !finite(s.EstimateNs) || !finite(s.DelayNs) {
			return fmt.Errorf("perK[%d] has a non-finite delay", i)
		}
	}
	return nil
}

// checkUpload validates a model upload's answer against the design sent.
func checkUpload(d *design, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("upload status %d: %.200s", status, body)
	}
	var r struct {
		Model httpapi.ModelInfo `json:"model"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding upload answer: %w", err)
	}
	m := r.Model
	if m.Name != modelName || m.Gates != d.gates || m.Nets != d.nets || m.Couplings != d.couplings {
		return fmt.Errorf("upload answer %+v does not match the design sent (%d gates, %d nets, %d couplings)",
			m, d.gates, d.nets, d.couplings)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
