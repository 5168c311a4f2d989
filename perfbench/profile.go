package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// profileGroups are the CPU-profile shares the benchmark reports, in
// output order.
var profileGroups = []string{"core", "noise", "malloc", "gc", "sched", "net_http", "json"}

// groupSamples reads a gzipped pprof CPU profile and returns each
// group's share of CPU time. A sample whose innermost function belongs
// to the runtime, net/http or encoding/json goes to that function's
// group, whoever called it; any other sample goes to the innermost
// core or noise frame on its stack, so that waveform and timing helpers
// and plain copies (runtime.memmove) count toward the engine that
// called them.
func groupSamples(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // CPU nanoseconds
		total += v
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.frames[loc]...)
		}
		if g := groupOf(frames); g != "" {
			shares[g] += v
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("profile: no samples")
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares, nil
}

// groupOf classifies one stack, innermost frame first. The runtime
// groups follow the usual split of the runtime's symbols into memory
// allocation, garbage collection and scheduling (which includes stack
// growth: copystack, morestack, newstack).
func groupOf(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	leaf := frames[0]
	switch {
	case strings.HasPrefix(leaf, "encoding/json."):
		return "json"
	case strings.HasPrefix(leaf, "net/http."), strings.HasPrefix(leaf, "net."),
		strings.HasPrefix(leaf, "internal/poll."), strings.HasPrefix(leaf, "syscall."),
		strings.HasPrefix(leaf, "bufio."):
		return "net_http"
	case strings.HasPrefix(leaf, "runtime."):
		if g := runtimeGroup(strings.TrimPrefix(leaf, "runtime.")); g != "" {
			return g
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "topkagg/internal/core."):
			return "core"
		case strings.HasPrefix(f, "topkagg/internal/noise."):
			return "noise"
		}
	}
	return ""
}

func runtimeGroup(fn string) string {
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(fn, s) {
				return true
			}
		}
		return false
	}
	switch {
	case has("gcBgMarkWorker", "gcDrain", "scanobject", "scanblock", "scanstack", "scanframe",
		"markroot", "greyobject", "findObject", "gcWork", "gcController", "gcMark", "gcStart",
		"sweep", "wbBuf", "gcWriteBarrier", "bulkBarrier", "gcAssist", "gcFlush", "(*gcBits)",
		"spanOf", "heapBitsForAddr", "typePointers", "gcmarknewobject", "gcResetMarkState"):
		return "gc"
	case has("malloc", "mcache", "mcentral", "mheap", "mspan", "nextFreeFast", "newobject",
		"newarray", "makeslice", "makemap", "growslice", "memclrNoHeapPointers", "heapSetType",
		"heapBitsSetType", "pageAlloc", "profilealloc", "publicationBarrier", "rawstring",
		"rawbyteslice", "slicebytetostring", "concatstring"):
		return "malloc"
	case has("schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "runq",
		"stealWork", "mcall", "gogo", "newproc", "goexit", "copystack", "morestack", "newstack",
		"wakep", "startm", "stopm", "notesleep", "notewakeup", "futex", "usleep", "osyield",
		"casgstatus", "lock2", "unlock2", "semacquire", "semrelease", "netpoll", "execute",
		"checkTimers", "runOneTimer", "procyield", "goschedImpl", "Gosched", "resetspinning",
		"entersyscall", "exitsyscall", "handoffp", "acquirep", "releasep", "pidle", "mPark",
		"systemstack", "chanrecv", "chansend", "selectgo", "nanotime", "suspendG", "preempt"):
		return "sched"
	}
	return ""
}

// profile is the part of a pprof profile.proto the grouping reads.
type profile struct {
	samples []sample
	// frames maps a location ID to its function names, innermost
	// (inlined) first.
	frames map[uint64][]string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the profile.proto message: field 2 samples,
// 4 locations, 5 functions and 6 the string table.
func decodeProfile(b []byte) (*profile, error) {
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location -> function IDs
		fnName  = map[uint64]int64{}    // function -> string index
	)
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, data)
				case 2:
					for _, x := range appendVarints(nil, wt, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, frames: map[uint64][]string{}}
	for loc, fns := range locFns {
		for _, fn := range fns {
			if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
				p.frames[loc] = append(p.frames[loc], strs[i])
			}
		}
	}
	return p, nil
}

// eachField walks one protobuf message. For varint fields v holds the
// value; for length-delimited fields data holds the bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wt int, v uint64, data []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
