package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile records a CPU profile in memory while the traced half of a
// workload runs.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// cpuGroups are the function groups CPU time is attributed to. A sample
// goes to allocation/GC when any frame of its stack is in the allocator
// or the collector; otherwise to the group of the innermost frame that
// matches a prefix below; otherwise to no group.
var cpuGroups = []struct {
	metric   string
	prefixes []string
}{
	{"cpu.lp_warm_install", []string{
		"auditgame/internal/lp.(*tableau).warmInstall",
		"auditgame/internal/lp.(*tableau).warmRepair",
		"auditgame/internal/lp.(*standard).warmCols",
		"auditgame/internal/lp.(*standard).basisFromCols",
	}},
	{"cpu.lp_simplex", []string{
		"auditgame/internal/lp.(*tableau).",
		"auditgame/internal/lp.(*standard).simplex",
		"auditgame/internal/lp.(*Problem).Solve",
	}},
	{"cpu.lp_build", []string{
		"auditgame/internal/lp.NewProblem",
		"auditgame/internal/lp.(*Problem).",
		"auditgame/internal/lp.(*standard).newTableau",
		"auditgame/internal/game.(*Instance).solveFixedFromPals",
	}},
	{"cpu.game_sigkey", []string{
		"auditgame/internal/game.sigKey",
	}},
	{"cpu.game_pal_kernel", []string{
		"auditgame/internal/game.(*Instance).PalGridSweep",
		"auditgame/internal/game.(*Instance).palGridChunk",
		"auditgame/internal/game.(*PalGrid).",
		"auditgame/internal/game.(*Instance).Pal",
		"auditgame/internal/game.(*Instance).pal",
		"auditgame/internal/game.(*Instance).buildPalTrie",
		"auditgame/internal/game.(*Instance).spentColumn",
		"auditgame/internal/game.(*PrefixPricer).",
		"auditgame/internal/game.NewPrefixPricer",
		"auditgame/internal/game.(*Instance).ExtendReducedCosts",
		"auditgame/internal/game.(*Instance).CompletionLowerBound",
		"auditgame/internal/game.(*Instance).ReducedCost",
		"auditgame/internal/game.(*Instance).reducedCostFromPal",
	}},
	{"cpu.http_json", []string{
		"net/http.",
		"encoding/json.",
		"auditgame/internal/serve.",
	}},
}

// allocGCFrames mark a sample as allocator or collector work.
var allocGCFrames = []string{
	"runtime.mallocgc",
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.gcStart",
	"runtime.markroot",
}

// stopAndAttribute stops the profile and returns the share of sampled
// CPU time in each group, keyed by metric name, plus the sample count.
func (p *cpuProfile) stopAndAttribute() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{"cpu.runtime_alloc_gc": 0}
	for _, g := range cpuGroups {
		shares[g.metric] = 0
	}
	var total float64
	for _, s := range stacks {
		total += s.weight
		if g := classify(s.funcs); g != "" {
			shares[g] += s.weight
		}
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, len(stacks), nil
}

// classify names the group a stack (innermost frame first) belongs to.
func classify(funcs []string) string {
	for _, f := range funcs {
		for _, a := range allocGCFrames {
			if strings.HasPrefix(f, a) {
				return "cpu.runtime_alloc_gc"
			}
		}
	}
	for _, f := range funcs {
		for _, g := range cpuGroups {
			for _, pre := range g.prefixes {
				if strings.HasPrefix(f, pre) {
					return g.metric
				}
			}
		}
	}
	return ""
}

// stack is one profile sample: its function names, innermost first, and
// its CPU nanoseconds.
type stack struct {
	funcs  []string
	weight float64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: samples, their location
// stacks, the functions at each location, and the string table.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sampleRec struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sampleRec
		strs      []string
		funcName  = map[uint64]int64{}    // function id → name string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		protoErrs error
	)
	err = walkProto(raw, func(field int, wire int, v uint64, b []byte) {
		switch field {
		case 2: // sample
			var s sampleRec
			protoErrs = firstErr(protoErrs, walkProto(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			protoErrs = firstErr(protoErrs, walkProto(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // line
					protoErrs = firstErr(protoErrs, walkProto(b, func(f, w int, v uint64, b []byte) {
						if f == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			protoErrs = firstErr(protoErrs, walkProto(b, func(f, w int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
	})
	if err = firstErr(err, protoErrs); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{weight: float64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// appendVarints appends a repeated uint64 field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkProto calls f for every top-level field of a protobuf message:
// varints arrive in v, length-delimited fields in b.
func walkProto(msg []byte, f func(field, wire int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
			f(field, wire, v, nil)
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			f(field, wire, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
