// Package serve is the batch-query layer over one noise model: an
// Analyzer, built once per noise.Model, memoizes the expensive
// per-configuration engine state (the all-aggressor fixpoint, victim
// selection, primary envelopes, dominance intervals, elimination
// totals) behind a concurrency-safe cache and answers many top-k and
// what-if queries against the shared state — serially via Do, or with
// a worker pool via RunBatch.
//
// The point is amortization: a cold core.TopK* call repays the whole
// engine setup on every query, so a k-sweep or a per-net scan over a
// design performs the same preparation r×k times. An Analyzer performs
// the fixpoint once per model and each (mode, target) preparation once,
// after which queries only pay for their own enumeration.
//
// Sharing is safe because everything cached is strictly read-only
// after construction: core.Shared never mutates its prepared state,
// and noise.Model, noise.Analysis and circuit.Circuit are never
// written during analysis (see their package docs). Determinism is
// preserved — a query's Response is byte-for-byte the same whether the
// batch ran with 1 worker or 64, and identical to a cold core call
// with the same configuration (wall-clock fields aside).
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"topkagg/internal/budget"
	"topkagg/internal/circuit"
	"topkagg/internal/core"
	"topkagg/internal/faultinject"
	"topkagg/internal/noise"
)

// WholeCircuit selects the circuit outputs as a query's target.
const WholeCircuit = core.WholeCircuit

// Op selects what a Query computes.
type Op int

const (
	// Addition asks for the top-k aggressors addition sets (which k
	// couplings add the most delay to noiseless timing).
	Addition Op = iota
	// Elimination asks for the top-k aggressors elimination sets
	// (which k couplings to fix for the largest delay recovery).
	Elimination
	// WhatIf evaluates one explicit scenario: the circuit (or target
	// net) delay after deactivating Query.Fix on top of the active
	// mask, re-analyzed against the cached fixpoint (a cold fixpoint
	// run unless the fix changes nothing).
	WhatIf
)

func (op Op) String() string {
	switch op {
	case Addition:
		return "addition"
	case Elimination:
		return "elimination"
	case WhatIf:
		return "whatif"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// ParseOp maps an Op's wire names to its value: "addition"/"add",
// "elimination"/"elim", "whatif". The accepted long forms round-trip
// through Op.String.
func ParseOp(s string) (Op, bool) {
	switch s {
	case "addition", "add":
		return Addition, true
	case "elimination", "elim":
		return Elimination, true
	case "whatif":
		return WhatIf, true
	}
	return 0, false
}

// Limits bound one query's execution. The zero value is unlimited.
type Limits struct {
	// Timeout caps the query's wall-clock time; past it the engines
	// stop at the next poll point and the Response degrades to a
	// Partial result or a typed error. 0 means no timeout.
	Timeout time.Duration
	// MaxWork caps the enumeration work in candidate-evaluation units
	// (each candidate aggressor set scored and each reference
	// re-measurement costs one unit). 0 means unlimited.
	MaxWork int64
}

// Query is one unit of work for an Analyzer.
type Query struct {
	// Op selects the computation.
	Op Op
	// Net restricts the analysis to one net's arrival; WholeCircuit
	// (-1) analyzes the circuit outputs.
	Net circuit.NetID
	// K is the requested cardinality for top-k ops (the full
	// per-cardinality curve 1..K is returned, so a k-sweep is one
	// query). Ignored by WhatIf.
	K int
	// Fix lists the couplings a WhatIf scenario deactivates.
	Fix []circuit.CouplingID
	// Limits bound this query's execution (zero = unlimited). They
	// compose with a caller context: DoCtx stops at whichever of the
	// context and the limits trips first.
	Limits Limits
}

// Degradation reasons reported in Response.Degraded. The budget-driven
// ones are the budget.Reason strings.
const (
	DegradedCanceled     = "canceled"
	DegradedDeadline     = "deadline"
	DegradedWork         = "work-budget"
	DegradedNotConverged = "not-converged"
)

// Response is the outcome of one Query, aligned with it by index in
// RunBatch's result.
type Response struct {
	// Query echoes the request.
	Query Query
	// Result holds the top-k outcome (nil for WhatIf or on error). Its
	// Stats carry the per-cardinality engine counters plus the cache
	// hit/miss of this query's shared-state lookup.
	Result *core.Result
	// Delay is a WhatIf scenario's resulting delay, ns.
	Delay float64
	// Err reports a failed query; other queries in the batch are
	// unaffected. Worker panics surface here as wrapped
	// *budget.PanicError values, never as process crashes.
	Err error
	// Partial reports a best-effort result: the query's budget (timeout,
	// work allowance or cancellation) stopped the enumeration early and
	// Result carries exactly the cardinalities that completed, each
	// identical to an unbounded run's. Err is nil when Partial is set.
	Partial bool
	// Degraded names why a successful response is less than the full
	// answer: one of the Degraded* constants. Empty for complete,
	// fully-converged responses and for hard errors (inspect Err then).
	Degraded string
}

// Stats aggregates what an Analyzer's caches did across all queries.
type Stats struct {
	// Queries is the number of queries answered (including failed ones).
	Queries int64
	// PrepHits / PrepMisses count shared-state cache lookups: a hit
	// reused a memoized (mode, target) preparation, a miss built one.
	PrepHits   int64
	PrepMisses int64
	// FixpointRuns is the number of full noise fixpoints executed (at
	// most one per Analyzer; cold core calls pay one per query).
	FixpointRuns int64
}

// Analyzer answers top-k and what-if queries over one noise model,
// memoizing shared engine state across queries. All methods are safe
// for concurrent use.
type Analyzer struct {
	m   *noise.Model
	opt core.Options

	mu    sync.Mutex
	full  *fullEntry
	preps map[prepKey]*prepEntry

	queries, hits, misses, fixpoints atomic.Int64

	obs *serveObs // resolved from the model's registry; nil disables
}

type prepKey struct {
	elim bool
	net  circuit.NetID
}

// fullEntry single-flights the one fixpoint run: the first query
// builds (under its own budget), concurrent queries wait on done.
// Entries that fail transiently — the builder's budget tripped or a
// worker panicked — are evicted from the Analyzer before done closes,
// so a later query retries instead of inheriting a stale stop; only
// permanent model errors stay cached.
type fullEntry struct {
	done chan struct{}
	an   *noise.Analysis
	err  error
}

// prepEntry single-flights one (mode, target) preparation with the
// same transient-eviction discipline as fullEntry.
type prepEntry struct {
	done   chan struct{}
	shared *core.Shared
	err    error
}

// NewAnalyzer creates an Analyzer over the model with the given
// enumeration options. The options are fixed for the Analyzer's
// lifetime — they shape the cached state (victim selection, active
// mask), so varying them requires a separate Analyzer. When the model
// carries a metric registry (noise.Model.Obs), the Analyzer publishes
// per-query latency and cache metrics to it.
func NewAnalyzer(m *noise.Model, opt core.Options) *Analyzer {
	return &Analyzer{m: m, opt: opt, preps: map[prepKey]*prepEntry{}, obs: newServeObs(m.Obs)}
}

// Options returns the Analyzer's enumeration options. Snapshot restore
// uses it to check that a restored Analyzer matches the preset its
// container claimed.
func (a *Analyzer) Options() core.Options { return a.opt }

// retryableStop reports whether a failed cache build may be retried by
// a waiter whose own budget is still alive: the build died of the
// BUILDER's budget (cancel, deadline, work), which says nothing about
// the inputs or about the waiter. Worker panics are not retried — they
// indicate a bug and must surface — but the entry is still evicted, so
// the next query gets a fresh attempt.
func retryableStop(err error) bool {
	switch budget.ReasonOf(err) {
	case budget.Canceled, budget.DeadlineExceeded, budget.WorkExhausted:
		return true
	}
	return false
}

// fullAnalysis memoizes the one fixpoint run every preparation and
// what-if hangs off. The first caller builds under its own budget;
// concurrent callers wait on the entry (bounded by their own budgets).
// A waiter that inherits the BUILDER's budget failure retries — the
// failed entry was evicted — so a query only ever fails on its own
// budget, a panic, or a permanent model error.
func (a *Analyzer) fullAnalysis(b *budget.B) (*noise.Analysis, error) {
	for {
		a.mu.Lock()
		e := a.full
		if e == nil {
			e = &fullEntry{done: make(chan struct{})}
			a.full = e
			a.mu.Unlock()
			// Builder: a budget failure here is necessarily our own
			// budget's, so return it without retrying.
			a.buildFull(b, e)
			return e.an, e.err
		}
		a.mu.Unlock()
		select {
		case <-e.done:
		case <-b.Context().Done():
			return nil, fmt.Errorf("serve: %w", b.Err())
		}
		if e.err == nil || !retryableStop(e.err) {
			return e.an, e.err
		}
		if err := b.Err(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
}

// buildFull runs the fixpoint into e and publishes it. A transient
// failure — the builder's budget tripped, or the run panicked —
// evicts the entry before done closes, so the in-flight waiters see
// the error but later queries rebuild fresh.
func (a *Analyzer) buildFull(b *budget.B, e *fullEntry) {
	defer func() {
		if r := recover(); r != nil {
			e.an, e.err = nil, fmt.Errorf("serve: full analysis: %w", budget.NewPanicError("serve.full", r))
		}
		if e.err != nil && budget.IsStop(e.err) {
			a.mu.Lock()
			if a.full == e {
				a.full = nil
			}
			a.mu.Unlock()
		}
		close(e.done)
	}()
	a.fixpoints.Add(1)
	if a.obs != nil {
		a.obs.fixpoints.Inc()
	}
	e.an, e.err = a.m.RunBudget(b, a.opt.Active)
}

// sharedFor returns the memoized shared state for one (mode, target)
// configuration, building it on first use under the querying budget.
// hit reports whether the entry already existed at lookup. Entries
// whose build stopped transiently are evicted (see fullEntry) so the
// cache never pins a cancellation or panic, and a waiter that inherits
// the builder's budget failure retries the lookup under its own.
func (a *Analyzer) sharedFor(b *budget.B, elim bool, net circuit.NetID) (shared *core.Shared, hit bool, err error) {
	key := prepKey{elim: elim, net: net}
	for {
		a.mu.Lock()
		e, ok := a.preps[key]
		if !ok {
			e = &prepEntry{done: make(chan struct{})}
			a.preps[key] = e
		}
		a.mu.Unlock()
		if !ok {
			a.misses.Add(1)
			if a.obs != nil {
				a.obs.prepMiss.Inc()
			}
			// Builder: a budget failure here is necessarily our own
			// budget's (fullAnalysis already absorbed everyone else's),
			// so return it without retrying.
			a.buildPrep(b, e, key, elim, net)
			return e.shared, false, e.err
		}
		a.hits.Add(1)
		if a.obs != nil {
			a.obs.prepHits.Inc()
		}
		select {
		case <-e.done:
		case <-b.Context().Done():
			return nil, true, fmt.Errorf("serve: %w", b.Err())
		}
		if e.err == nil || !retryableStop(e.err) {
			return e.shared, true, e.err
		}
		if err := b.Err(); err != nil {
			return nil, true, fmt.Errorf("serve: %w", err)
		}
		// The builder's budget stopped the build and the entry was
		// evicted; ours is still alive, so retry the lookup.
	}
}

// buildPrep builds one preparation into e with the same
// transient-eviction discipline as buildFull.
func (a *Analyzer) buildPrep(b *budget.B, e *prepEntry, key prepKey, elim bool, net circuit.NetID) {
	defer func() {
		if r := recover(); r != nil {
			e.shared, e.err = nil, fmt.Errorf("serve: prepare: %w", budget.NewPanicError("serve.prep", r))
		}
		if e.err != nil && budget.IsStop(e.err) {
			a.mu.Lock()
			if a.preps[key] == e {
				delete(a.preps, key)
			}
			a.mu.Unlock()
		}
		close(e.done)
	}()
	faultinject.Fire(faultinject.SiteServePrep)
	full, ferr := a.fullAnalysis(b)
	if ferr != nil {
		e.err = ferr
		return
	}
	if elim {
		e.shared, e.err = core.PrepareEliminationBudget(b, a.m, full, net, a.opt)
	} else {
		e.shared, e.err = core.PrepareAdditionBudget(b, a.m, full, net, a.opt)
	}
}

// Do answers one query without limits beyond Query.Limits. Errors are
// reported in the Response, never panicked, so a batch survives
// malformed entries.
func (a *Analyzer) Do(q Query) Response {
	return a.DoCtx(context.Background(), q)
}

// DoCtx answers one query under the context's cancellation and
// deadline composed with Query.Limits — whichever trips first stops
// the enumeration at its next poll point. A stopped top-k query
// returns its best-effort prefix as a Partial response; a stopped
// preparation or what-if returns a typed error. Worker panics are
// recovered into Response.Err and never poison the shared cache.
func (a *Analyzer) DoCtx(ctx context.Context, q Query) Response {
	if q.Limits.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.Limits.Timeout)
		defer cancel()
	}
	return a.doB(budget.WithWork(ctx, q.Limits.MaxWork), q)
}

// doB is the query engine: everything above it only shapes the budget.
func (a *Analyzer) doB(b *budget.B, q Query) (resp Response) {
	a.queries.Add(1)
	var start time.Time
	if a.obs != nil {
		start = time.Now()
	}
	resp = Response{Query: q}
	defer func() {
		if r := recover(); r != nil {
			resp.Result = nil
			resp.Partial = false
			resp.Degraded = ""
			resp.Err = fmt.Errorf("serve: query: %w", budget.NewPanicError("serve.query", r))
		}
		a.obs.queryDone(q.Op, start, resp.Err != nil)
		a.obs.outcome(&resp)
	}()
	faultinject.Fire(faultinject.SiteServeQuery)
	if q.Net != WholeCircuit && (int(q.Net) < 0 || int(q.Net) >= a.m.C.NumNets()) {
		resp.Err = fmt.Errorf("serve: no net %d in circuit %s", q.Net, a.m.C.Name)
		return resp
	}
	switch q.Op {
	case Addition, Elimination:
		if q.K < 1 {
			resp.Err = fmt.Errorf("serve: %s query needs k >= 1, got %d", q.Op, q.K)
			return resp
		}
		shared, hit, err := a.sharedFor(b, q.Op == Elimination, q.Net)
		if err != nil {
			resp.Err = err
			return resp
		}
		res, err := shared.TopKBudget(b, q.K)
		if err != nil {
			resp.Err = err
			return resp
		}
		if hit {
			res.Stats.CacheHits = 1
		} else {
			res.Stats.CacheMisses = 1
		}
		resp.Result = res
		switch {
		case res.Partial:
			resp.Partial = true
			resp.Degraded = budget.ReasonOf(res.Stopped).String()
		case shared.FullAnalysis().ConvergenceErr() != nil:
			resp.Degraded = DegradedNotConverged
		}
	case WhatIf:
		resp.Delay, resp.Degraded, resp.Err = a.whatIf(b, q)
	default:
		resp.Err = fmt.Errorf("serve: unknown query op %d", int(q.Op))
	}
	return resp
}

// whatIf evaluates the delay after deactivating q.Fix against the
// cached fixpoint: the cached analysis itself when the fix changes
// nothing, a cold fixpoint run of the fixed mask otherwise.
func (a *Analyzer) whatIf(b *budget.B, q Query) (float64, string, error) {
	full, err := a.fullAnalysis(b)
	if err != nil {
		return 0, "", err
	}
	prevMask := a.opt.Active
	var mask noise.Mask
	if prevMask == nil {
		mask = noise.AllMask(a.m.C)
	} else {
		mask = prevMask.Clone()
	}
	for _, id := range q.Fix {
		if int(id) < 0 || int(id) >= a.m.C.NumCouplings() {
			return 0, "", fmt.Errorf("serve: no coupling %d in circuit %s", id, a.m.C.Name)
		}
		mask[id] = false
	}
	an, _, err := a.m.RunIncrementalBudget(b, full, prevMask, mask)
	if err != nil {
		return 0, "", err
	}
	degraded := ""
	if an.ConvergenceErr() != nil {
		degraded = DegradedNotConverged
	}
	if q.Net != WholeCircuit {
		return an.Timing.Window(q.Net).LAT, degraded, nil
	}
	return an.CircuitDelay(), degraded, nil
}

// Stats snapshots the Analyzer's cache counters.
func (a *Analyzer) Stats() Stats {
	return Stats{
		Queries:      a.queries.Load(),
		PrepHits:     a.hits.Load(),
		PrepMisses:   a.misses.Load(),
		FixpointRuns: a.fixpoints.Load(),
	}
}
