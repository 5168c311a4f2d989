// Command perfbench is topkagg's benchmark. It drives a freshly built
// topkd over loopback HTTP with one closed-loop client on one
// connection, checks every answer, and prints the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1) as one JSON line. The
// per-layer run adds a CPU-profile pass and an in-process traced replay
// of the same seeded request sequence.
//
// Run it through run.sh, which builds topkd and this harness from the
// tree first:
//
//	bash perfbench/run.sh --workload query-warm --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

const (
	// setups is how many times a run starts topkd and sets it up; setup_s
	// is their median.
	setups = 3
	// minOps keeps p90 meaningful: a run measures until both --seconds
	// have passed and this many operations have completed.
	minOps = 100
	// profileSeconds is the length of the untimed CPU-profile pass.
	profileSeconds = 5
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	heavy    bool
	topkd    string
	outDir   string
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "query-warm, design-cold or whatif-eco")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the measured phase")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	variant := fs.String("variant", "", `"heavy" runs the sensitivity variant of the workload`)
	fs.StringVar(&cfg.topkd, "topkd", "", "topkd binary built from the tree under test")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for spans and other run output")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case cfg.topkd == "":
		return nil, fmt.Errorf("-topkd is required")
	case cfg.seconds < 1:
		return nil, fmt.Errorf("-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1")
	case *variant != "" && *variant != "heavy":
		return nil, fmt.Errorf(`-variant must be "" or "heavy"`)
	}
	cfg.trace, cfg.heavy = *trace == 1, *variant == "heavy"
	return cfg, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg *config) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	fp, err := takeFingerprint(root, cfg.topkd)
	if err != nil {
		return err
	}
	w, err := makeWorkload(cfg.workload, cfg.seed, cfg.heavy)
	if err != nil {
		return err
	}
	h, err := drive(cfg, w)
	if err != nil {
		return err
	}
	res := result{Attempted: h.attempted, Failed: h.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		if err := perLayer(cfg, w, h, &res); err != nil {
			return err
		}
	} else {
		endToEnd(h, res.Metrics)
	}
	res.Correct = res.Failed == 0 && h.otherFailures == 0
	fpLine, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("# fingerprint %s\n", fpLine)
	if cfg.trace {
		// A per-layer run measures the end-to-end numbers too; print them
		// for the sensitivity self-check, ahead of the result line.
		e2e := map[string]metric{}
		endToEnd(h, e2e)
		line, err := json.Marshal(e2e)
		if err != nil {
			return err
		}
		fmt.Printf("# end-to-end %s\n", line)
	}
	fmt.Println(string(out))
	return nil
}

// httpRun is what one run's untraced HTTP phase measured.
type httpRun struct {
	setup []time.Duration
	// otherFailures counts set-up and profile-pass operations that failed;
	// they are not measured operations, but they make a run incorrect.
	otherFailures int

	attempted, failed int
	latency           []time.Duration // completed operations
	wall              time.Duration
	serverCPU         time.Duration
	clientCPU         time.Duration
	peakRSSMB         float64
	before, after     *debugVars
	dials             int64

	overhead   time.Duration // client query time minus X-Topkd-Elapsed-Ns
	respBytes  int64
	uploadTime time.Duration
	bodies     [][]byte // answers of the measured operations; nil where one failed
	profile    map[string]float64
}

// drive sets topkd up several times, keeps the last one, and runs the
// measured phase over one connection; with tracing on it then runs the
// profile pass.
func drive(cfg *config, w *workload) (*httpRun, error) {
	h := &httpRun{}
	var s *topkd
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if s != nil {
			s.stop()
			s = nil
		}
		start := time.Now()
		var err error
		if s, err = startTopkd(cfg.topkd); err != nil {
			return nil, err
		}
		for j := range w.warm {
			if _, err := send(s, w, &w.warm[j]); err != nil {
				h.otherFailures++
				fmt.Fprintf(os.Stderr, "perfbench: set-up operation %d: %v\n", j, err)
			}
		}
		h.setup = append(h.setup, time.Since(start))
	}
	before, err := s.vars()
	if err != nil {
		return nil, err
	}
	dials0 := s.dials.Load()
	cpu0, err := s.cpuTime()
	if err != nil {
		return nil, err
	}
	ru0 := rusage()
	dur := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	for next := 0; next < minOps || time.Since(start) < dur; next++ {
		if next >= len(w.ops) && !w.wrap {
			fmt.Fprintf(os.Stderr, "perfbench: %s: sequence done after %d operations\n", w.name, next)
			break
		}
		o := &w.ops[next%len(w.ops)]
		t0 := time.Now()
		r, err := send(s, w, o)
		h.attempted++
		if err != nil {
			h.failed++
			if h.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", next, err)
			}
		} else {
			h.latency = append(h.latency, time.Since(t0))
		}
		h.overhead += r.overhead
		h.respBytes += int64(r.bytes)
		h.uploadTime += r.upload
		h.bodies = append(h.bodies, r.body)
	}
	h.wall = time.Since(start)
	ru1 := rusage()
	cpu1, err := s.cpuTime()
	if err != nil {
		return nil, err
	}
	h.serverCPU, h.clientCPU = cpu1-cpu0, ru1-ru0
	h.dials = s.dials.Load() - dials0
	if h.after, err = s.vars(); err != nil {
		return nil, err
	}
	h.before = before
	if h.peakRSSMB, err = s.peakRSSMB(); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return h, nil
	}
	// The profile pass runs the sequence again from its start on a fresh,
	// set-up topkd: a continuation would repeat query-warm's requests,
	// whose envelopes the measured phase left cached.
	s.stop()
	if s, err = startTopkd(cfg.topkd); err != nil {
		return nil, err
	}
	for j := range w.warm {
		if _, err := send(s, w, &w.warm[j]); err != nil {
			return nil, fmt.Errorf("profile pass set-up: %w", err)
		}
	}
	if err := h.profilePass(s, w); err != nil {
		return nil, err
	}
	return h, nil
}

// sent is what one operation's requests returned.
type sent struct {
	body     []byte        // the query's answer
	bytes    int           // answer bytes of every request
	overhead time.Duration // query client time not covered by X-Topkd-Elapsed-Ns
	upload   time.Duration // wall time of the upload, if any
}

// send runs one operation: the optional upload, then the query, and
// checks both answers.
func send(s *topkd, w *workload, o *op) (sent, error) {
	var r sent
	// Every design of a workload has the same coupling count.
	couplings := w.designs[0].couplings
	if o.upload >= 0 {
		d := &w.designs[o.upload]
		t0 := time.Now()
		status, body, _, err := s.do(http.MethodPut, "/v1/models/"+modelName, "application/octet-stream", d.text)
		r.upload = time.Since(t0)
		r.bytes += len(body)
		if err != nil {
			return r, err
		}
		if err := checkUpload(d, status, body); err != nil {
			return r, err
		}
	}
	t0 := time.Now()
	status, body, elapsed, err := s.do(http.MethodPost, "/v1/models/"+modelName+"/query", "application/json", o.body)
	r.overhead = time.Since(t0) - time.Duration(elapsed)
	r.bytes += len(body)
	if err != nil {
		return r, err
	}
	if err := checkQuery(&o.req, status, body, couplings); err != nil {
		return r, err
	}
	r.body = body
	return r, nil
}

// profilePass sends the sequence, untimed, while a second connection
// pulls a CPU profile from topkd.
func (h *httpRun) profilePass(s *topkd, w *workload) error {
	type answer struct {
		data []byte
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		c := &http.Client{Timeout: (profileSeconds + 30) * time.Second}
		r, err := c.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", s.base, profileSeconds))
		if err != nil {
			done <- answer{err: err}
			return
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			done <- answer{err: fmt.Errorf("status %d", r.StatusCode)}
			return
		}
		buf, err := io.ReadAll(r.Body)
		done <- answer{buf, err}
	}()
	for i := 0; ; i++ {
		select {
		case a := <-done:
			if a.err != nil {
				return fmt.Errorf("cpu profile: %w", a.err)
			}
			shares, err := groupSamples(a.data)
			if err != nil {
				return err
			}
			h.profile = shares
			return nil
		default:
		}
		if _, err := send(s, w, &w.ops[i%len(w.ops)]); err != nil {
			h.otherFailures++
		}
	}
}

func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the linear-interpolation quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// endToEnd fills the metrics a user of topkd sees.
func endToEnd(h *httpRun, m map[string]metric) {
	lat := slices.Clone(h.latency)
	slices.Sort(lat)
	ops := float64(max(h.attempted, 1))
	completed := float64(h.attempted - h.failed)
	m["throughput_ops_per_s"] = metric{completed / h.wall.Seconds(), "ops/s"}
	m["latency_p50_ms"] = metric{ms(quantile(lat, 0.5)), "ms"}
	m["latency_p90_ms"] = metric{ms(quantile(lat, 0.9)), "ms"}
	m["server_cpu_ms_per_op"] = metric{ms(h.serverCPU) / ops, "ms"}
	m["server_allocs_per_op"] = metric{float64(h.after.Memstats.Mallocs-h.before.Memstats.Mallocs) / ops, "allocs"}
	m["server_peak_rss_mb"] = metric{h.peakRSSMB, "MiB"}
	m["setup_s"] = metric{median(h.setup).Seconds(), "s"}
}

// perLayer fills the per-layer metrics: [H] from the client side of the
// HTTP phase, [D] from topkd's /debug/vars deltas, [T] from the traced
// replay, and the CPU-profile shares.
func perLayer(cfg *config, w *workload, h *httpRun, res *result) error {
	m := res.Metrics
	ops := float64(max(h.attempted, 1))
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// [H]
	m["httpapi.overhead_ms_per_op"] = metric{ms(h.overhead) / ops, "ms"}
	m["httpapi.response_bytes_per_op"] = metric{float64(h.respBytes) / ops, "bytes"}
	m["httpapi.upload_ms_per_op"] = metric{ms(h.uploadTime) / ops, "ms"}
	m["bench.client_cpu_ms_per_op"] = metric{ms(h.clientCPU) / ops, "ms"}
	// The measured phase reuses the connection set-up opened; a new dial
	// means topkd closed it.
	m["bench.redials"] = metric{float64(h.dials), "count"}
	var sum time.Duration
	for _, d := range h.latency {
		sum += d
	}
	m["bench.untraced_ms_per_op"] = metric{ms(sum) / float64(max(len(h.latency), 1)), "ms"}

	// [D]
	d := func(name string) float64 {
		return float64(h.after.Topkagg.Counters[name] - h.before.Topkagg.Counters[name])
	}
	hits, misses := d("serve.prep_hits"), d("serve.prep_misses")
	m["serve.prep_hit_share"] = metric{ratio(hits, hits+misses), "ratio"}
	m["serve.fixpoint_runs_per_op"] = metric{d("serve.fixpoint_runs") / ops, "count"}
	// Preparations topkd built since it started, set-up included: on
	// query-warm every one of them is queried once in the measured phase.
	m["serve.peak_rss_mb_per_prep"] = metric{ratio(h.peakRSSMB, float64(h.after.Topkagg.Counters["serve.prep_misses"])), "MiB"}
	evals := d("noise.fixpoint.evals")
	m["noise.fixpoint_sweeps_per_op"] = metric{d("noise.fixpoint.sweeps") / ops, "count"}
	m["noise.fixpoint_evals_per_op"] = metric{evals / ops, "count"}
	eh, em := d("noise.fixpoint.env_memo_hits"), d("noise.fixpoint.env_memo_misses")
	m["noise.env_memo_hit_share"] = metric{ratio(eh, eh+em), "ratio"}
	rh, rm := d("noise.fixpoint.raw_memo_hits"), d("noise.fixpoint.raw_memo_misses")
	m["noise.raw_memo_hit_share"] = metric{ratio(rh, rh+rm), "ratio"}
	m["noise.grid_screen_hit_share"] = metric{ratio(d("noise.fixpoint.grid_screen_hits"), evals), "ratio"}
	m["noise.grid_skip_share"] = metric{ratio(d("noise.fixpoint.grid_eval_skips"), evals), "ratio"}
	m["runtime.gc_cycles_per_op"] = metric{float64(h.after.Memstats.NumGC-h.before.Memstats.NumGC) / ops, "count"}
	m["runtime.gc_pause_ms_per_op"] = metric{float64(h.after.Memstats.PauseTotalNs-h.before.Memstats.PauseTotalNs) / 1e6 / ops, "ms"}

	// CPU profile
	for _, g := range profileGroups {
		m["profile."+g+"_share"] = metric{h.profile[g], "ratio"}
	}

	// [T]
	tr, st, err := replay(w, h.attempted, h.bodies)
	if err != nil {
		return err
	}
	res.Failed += st.mismatches
	name := fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed)
	if err := writeSpans(filepath.Join(cfg.outDir, "trace"), name, tr.spans); err != nil {
		return err
	}
	byName, requests, unattributed := layerTimes(tr.spans)
	per := func(name string) float64 { return ms(byName[name]) / ops }
	m["netlist.parse_ms_per_op"] = metric{per("netlist.parse"), "ms"}
	m["noise.fixpoint_ms_per_op"] = metric{per("noise.fixpoint"), "ms"}
	m["noise.incremental_ms_per_op"] = metric{per("noise.incremental"), "ms"}
	m["core.prepare_ms_per_op"] = metric{per("core.prepare"), "ms"}
	m["core.enumerate_ms_per_op"] = metric{(ms(byName["core.topk"]) - ms(st.rescore)) / ops, "ms"}
	m["core.rescore_ms_per_op"] = metric{ms(st.rescore) / ops, "ms"}
	m["httpapi.codec_ms_per_op"] = metric{(ms(byName["httpapi.decode"]) + ms(byName["httpapi.encode"])) / ops, "ms"}
	m["noise.incremental_full_share"] = metric{ratio(float64(st.incFull), float64(st.incRuns)), "ratio"}
	m["noise.incremental_affected_share"] = metric{ratio(float64(st.incAffected), float64(st.incNets)), "ratio"}
	m["core.candidates_per_op"] = metric{float64(st.candidates) / ops, "count"}
	m["core.duplicate_share"] = metric{ratio(float64(st.duplicates), float64(st.candidates)), "ratio"}
	m["core.kept_share"] = metric{ratio(float64(st.kept), float64(st.candidates)), "ratio"}
	m["core.digest_refute_share"] = metric{ratio(float64(st.digestHits), float64(st.digestHits+st.digestFallbacks)), "ratio"}
	m["core.envcache_hit_share"] = metric{ratio(float64(st.envHits), float64(st.envHits+st.envMisses)), "ratio"}
	m["trace.request_ms_per_op"] = metric{ms(requests) / ops, "ms"}
	m["trace.unattributed_share"] = metric{ratio(float64(unattributed), float64(requests)), "ratio"}
	return nil
}
