package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"topkagg/internal/circuit"
	"topkagg/internal/gen"
	"topkagg/internal/httpapi"
	"topkagg/internal/netlist"
)

// modelName is the registry name every workload uploads its design under.
const modelName = "bench"

// design is one generated netlist, uploaded as a raw body.
type design struct {
	text      []byte
	gates     int
	couplings int
	nets      int
}

// op is one closed-loop operation: an optional model upload (design-cold)
// followed by one query.
type op struct {
	upload int // index into workload.designs; -1 = no upload
	req    httpapi.QueryRequest
	body   []byte // req as sent on the wire
}

// workload is everything one run sends, generated from the seed before
// topkd starts so that generation never counts as set-up or as load.
type workload struct {
	name    string
	designs []design
	// warm is the set-up sequence; its first operation uploads the
	// design. Its answers are checked but not timed as operations.
	warm []op
	// ops is the measured sequence, sent in order. A workload whose
	// requests must not repeat stops when it runs out; the others wrap.
	ops  []op
	wrap bool
}

func newOp(upload int, req httpapi.QueryRequest) op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a QueryRequest always marshals
	}
	return op{upload: upload, req: req, body: body}
}

func designOf(c *circuit.Circuit) design {
	return design{
		text:      []byte(netlist.String(c)),
		gates:     c.NumGates(),
		couplings: c.NumCouplings(),
		nets:      c.NumNets(),
	}
}

// makeWorkload generates a workload's designs and request sequences from
// the seed. heavy selects the sensitivity variant: the same workload
// with more work per operation in its dominant layer.
func makeWorkload(name string, seed int64, heavy bool) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "query-warm":
		return queryWarm(rng, heavy)
	case "design-cold":
		return designCold(rng, heavy)
	case "whatif-eco":
		return whatifEco(rng, heavy)
	}
	return nil, fmt.Errorf("unknown workload %q (want query-warm, design-cold or whatif-eco)", name)
}

// queryWarm: top-k queries against one warm i3 design. The design, its
// targets and each target's k are fixed, and the seed orders the
// requests: the seed must not move the work a run does. A random
// i3-sized design changes the cost of a pass by about 17% from seed to
// seed, and dealing k out at random moved allocations per request by 7%,
// either of which would drown the changes the workload is there to show.
//
// The targets are the circuit outputs plus every other driven net in
// order of fanin-cone size (66 nets). Additions go to every target and
// eliminations to every other one, so 2/3 of requests are additions.
// Each (op, target) is asked once, so no request repeats and no query
// finds the envelope cache warmed by an earlier query on its target,
// which would make its cost depend on the order. k cycles through 2..5
// (2..6 when heavy) along the (op, target) pairs in cone order, so every
// k is asked of targets of every size.
//
// A run ends when the sequence does, before --seconds on a 2-CPU host:
// every query leaves its envelopes cached in topkd, so memory grows with
// the work done, and this sequence already takes topkd to about 1.2 GB.
func queryWarm(rng *rand.Rand, heavy bool) (*workload, error) {
	kMax := 5
	if heavy {
		kMax = 6
	}
	spec, err := gen.PaperSpec("i3")
	if err != nil {
		return nil, err
	}
	c, err := gen.Build(spec)
	if err != nil {
		return nil, err
	}
	targets := []string{""}
	for i, n := range drivenByCone(c) {
		if i%2 == 0 {
			targets = append(targets, n)
		}
	}
	type pair struct{ op, net string }
	var pairs []pair
	for i, t := range targets {
		pairs = append(pairs, pair{"addition", t})
		if i%2 == 0 {
			pairs = append(pairs, pair{"elimination", t})
		}
	}
	w := &workload{name: "query-warm", designs: []design{designOf(c)}}
	for _, p := range pairs {
		w.warm = append(w.warm, newOp(-1, httpapi.QueryRequest{Op: p.op, Net: p.net, K: 1}))
	}
	w.warm[0].upload = 0
	for i, p := range pairs {
		w.ops = append(w.ops, newOp(-1, httpapi.QueryRequest{Op: p.op, Net: p.net, K: 2 + i%(kMax-1)}))
	}
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return w, nil
}

// drivenByCone lists the driven nets in order of fanin-cone size.
func drivenByCone(c *circuit.Circuit) []string {
	type cand struct {
		name string
		cone int
	}
	var all []cand
	for id := 0; id < c.NumNets(); id++ {
		net := c.Net(circuit.NetID(id))
		if net.Driver != circuit.NoGate {
			all = append(all, cand{net.Name, len(c.FaninCone(circuit.NetID(id)))})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].cone < all[j].cone })
	out := make([]string, len(all))
	for i, a := range all {
		out[i] = a.name
	}
	return out
}

// designCold: every operation replaces the model with one of 4
// i6-sized designs (i7-sized when heavy) and asks one whole-circuit
// addition k=1 query. The designs are fixed and the seed orders the
// uploads, in rounds that send each design once: the cold cost of a
// random i6-sized design varies by about 15% from design to design, and
// a seeded pool of 32 still moved allocations per operation by 7% from
// seed to seed.
func designCold(rng *rand.Rand, heavy bool) (*workload, error) {
	const pool = 4
	base := "i6"
	if heavy {
		base = "i7"
	}
	spec, err := gen.PaperSpec(base)
	if err != nil {
		return nil, err
	}
	w := &workload{name: "design-cold", wrap: true}
	seed := spec.Seed
	for i := 0; i < pool; i++ {
		spec.Name = fmt.Sprintf("cold%d", i)
		spec.Seed = seed + int64(i)
		c, err := gen.Build(spec)
		if err != nil {
			return nil, err
		}
		w.designs = append(w.designs, designOf(c))
	}
	q := httpapi.QueryRequest{Op: "addition", K: 1}
	// The warm-up uploads every design once, so that pooled scratch and
	// the heap have reached their working size before timing.
	for i := 0; i < pool; i++ {
		w.warm = append(w.warm, newOp(i, q))
	}
	for round := 0; round < 500; round++ {
		for _, i := range rng.Perm(pool) {
			w.ops = append(w.ops, newOp(i, q))
		}
	}
	return w, nil
}

// whatifEco: what-if queries on one warm gen.Scale(10000) design
// (gen.Scale(20000) when heavy), each deactivating 1-8 distinct random
// couplings. The design is fixed by its size; the seed draws the fixes.
func whatifEco(rng *rand.Rand, heavy bool) (*workload, error) {
	nets := 10000
	if heavy {
		nets = 20000
	}
	c, err := gen.Scale(nets)
	if err != nil {
		return nil, err
	}
	w := &workload{name: "whatif-eco", designs: []design{designOf(c)}, wrap: true}
	fix := func() op {
		n := 1 + rng.Intn(8)
		seen := map[int]bool{}
		ids := make([]int, 0, n)
		for len(ids) < n {
			id := rng.Intn(c.NumCouplings())
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		return newOp(-1, httpapi.QueryRequest{Op: "whatif", Fix: ids})
	}
	for i := 0; i < 4; i++ {
		w.warm = append(w.warm, fix())
	}
	w.warm[0].upload = 0
	for i := 0; i < 2000; i++ {
		w.ops = append(w.ops, fix())
	}
	return w, nil
}
