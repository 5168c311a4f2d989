package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"topkagg/internal/budget"
	"topkagg/internal/cell"
	"topkagg/internal/circuit"
	"topkagg/internal/core"
	"topkagg/internal/httpapi"
	"topkagg/internal/netlist"
	"topkagg/internal/noise"
	"topkagg/internal/obs"
	"topkagg/internal/serve"
)

// span is one timed call into a layer. Spans of one request share Req;
// set-up spans have Req -1. Parent indexes the enclosing span, -1 for
// a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// replayStats are the counts the replay takes where the work happens.
type replayStats struct {
	mismatches                    int
	rescore                       time.Duration
	candidates, duplicates, kept  int64
	digestHits, digestFallbacks   int64
	envHits, envMisses            int64
	incRuns, incFull, incAffected int64
	incNets                       int64
}

// replayer mirrors topkd's call sequence in-process: one live model and
// a (mode, target) -> *core.Shared map like serve's cache.
type replayer struct {
	tr    *tracer
	st    replayStats
	w     *workload
	c     *circuit.Circuit
	m     *noise.Model
	full  *noise.Analysis
	preps map[prepKey]*core.Shared
}

type prepKey struct {
	elim bool
	net  circuit.NetID
}

// replay runs the set-up sequence and then the first n measured
// operations of w, comparing each re-derived answer with the bytes the
// same request got over HTTP. An operation the replay cannot answer
// counts as a mismatch.
func replay(w *workload, n int, bodies [][]byte) (*tracer, replayStats, error) {
	r := &replayer{tr: &tracer{t0: time.Now()}, w: w}
	for i := range w.warm {
		if _, err := r.op(&w.warm[i], -1); err != nil {
			return nil, r.st, fmt.Errorf("replay set-up: %w", err)
		}
	}
	for i := 0; i < n; i++ {
		o := &w.ops[i%len(w.ops)]
		body, err := r.op(o, i)
		if bodies[i] == nil {
			continue // the operation already failed over HTTP
		}
		if err != nil || !bytes.Equal(body, bodies[i]) {
			r.st.mismatches++
			if r.st.mismatches == 1 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d: in-process answer differs from HTTP (%v):\n  http: %.300s\n  here: %.300s\n", i, err, bodies[i], body)
			}
		}
	}
	return r.tr, r.st, nil
}

// op replays one operation as topkd runs it and returns the answer body.
func (r *replayer) op(o *op, req int) ([]byte, error) {
	tr := r.tr
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	b := budget.New(context.Background())
	if o.upload >= 0 {
		s := tr.begin("netlist.parse", root, req)
		c, err := netlist.ParseString(string(r.w.designs[o.upload].text), cell.Default())
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("noise.new_model", root, req)
		// topkd runs with its debug tree on, so its models carry a
		// metric registry; so does this one.
		r.c, r.m, r.full, r.preps = c, noise.NewModel(c).WithObs(obs.New()), nil, map[prepKey]*core.Shared{}
		tr.end(s)
	}

	s := tr.begin("httpapi.decode", root, req)
	var qr httpapi.QueryRequest
	dec := json.NewDecoder(bytes.NewReader(o.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&qr)
	var q serve.Query
	if err == nil {
		q, err = r.query(&qr)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}

	if r.full == nil {
		s := tr.begin("noise.fixpoint", root, req)
		r.full, err = r.m.RunBudget(b, nil)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	resp := serve.Response{Query: q}
	if q.Op == serve.WhatIf {
		mask := noise.AllMask(r.c)
		for _, id := range q.Fix {
			mask[id] = false
		}
		s := tr.begin("noise.incremental", root, req)
		an, ist, err := r.m.RunIncrementalBudget(b, r.full, nil, mask)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if req >= 0 {
			r.st.incRuns++
			r.st.incAffected += int64(ist.Affected)
			r.st.incNets += int64(r.c.NumNets())
			if ist.Full {
				r.st.incFull++
			}
		}
		resp.Delay = an.CircuitDelay()
		if q.Net != serve.WholeCircuit {
			resp.Delay = an.Timing.Window(q.Net).LAT
		}
		if an.ConvergenceErr() != nil {
			resp.Degraded = serve.DegradedNotConverged
		}
	} else {
		s := tr.begin("serve.lookup", root, req)
		key := prepKey{q.Op == serve.Elimination, q.Net}
		sh := r.preps[key]
		tr.end(s)
		if sh == nil {
			s := tr.begin("core.prepare", root, req)
			if key.elim {
				sh, err = core.PrepareEliminationBudget(b, r.m, r.full, q.Net, core.Options{})
			} else {
				sh, err = core.PrepareAdditionBudget(b, r.m, r.full, q.Net, core.Options{})
			}
			tr.end(s)
			if err != nil {
				return nil, err
			}
			r.preps[key] = sh
		}
		s = tr.begin("core.topk", root, req)
		res, err := sh.TopKBudget(b, q.K)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if req >= 0 {
			r.count(res)
		}
		resp.Result = res
		switch {
		case res.Partial:
			resp.Partial = true
			resp.Degraded = budget.ReasonOf(res.Stopped).String()
		case sh.FullAnalysis().ConvergenceErr() != nil:
			resp.Degraded = serve.DegradedNotConverged
		}
	}

	s = tr.begin("httpapi.encode", root, req)
	wire, err := httpapi.ToWire(r.c, resp)
	var body []byte
	if err == nil {
		body, err = json.Marshal(wire)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// query converts a wire query the way topkd's validation does.
func (r *replayer) query(qr *httpapi.QueryRequest) (serve.Query, error) {
	op, ok := serve.ParseOp(qr.Op)
	if !ok {
		return serve.Query{}, fmt.Errorf("unknown op %q", qr.Op)
	}
	q := serve.Query{Op: op, Net: serve.WholeCircuit, K: qr.K}
	if qr.Net != "" {
		id, ok := r.c.NetByName(qr.Net)
		if !ok {
			return serve.Query{}, fmt.Errorf("no net %q", qr.Net)
		}
		q.Net = id
	}
	if op == serve.WhatIf {
		q.K = 0
		for _, id := range qr.Fix {
			q.Fix = append(q.Fix, circuit.CouplingID(id))
		}
	}
	return q, nil
}

func (r *replayer) count(res *core.Result) {
	st := &r.st
	st.rescore += res.Stats.RescoreElapsed
	st.envHits += int64(res.Stats.EnvCacheHits)
	st.envMisses += int64(res.Stats.EnvCacheMisses)
	for _, k := range res.Stats.PerK {
		st.candidates += int64(k.Candidates)
		st.duplicates += int64(k.Duplicates)
		st.kept += int64(k.Candidates - k.Duplicates - k.PrunedDominance - k.PrunedBeam)
		st.digestHits += int64(k.DigestHits)
		st.digestFallbacks += int64(k.DigestFallbacks)
	}
}

// layerTimes sums, over the measured requests, each span name's
// duration and each request's self time (the part no child covers).
func layerTimes(spans []span) (byName map[string]time.Duration, requests, unattributed time.Duration) {
	byName = map[string]time.Duration{}
	childSum := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		if s.Parent < 0 {
			requests += d
			unattributed += d - time.Duration(childSum[i])
			continue
		}
		byName[s.Name] += d
	}
	return byName, requests, unattributed
}

// writeSpans stores the run's spans as JSON under dir.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
