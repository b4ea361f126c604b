package bench

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// Attribute decodes a CPU profile with `go tool pprof -traces` and
// returns the share of samples each layer owns; see AttributeTraces.
func Attribute(profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return AttributeTraces(string(out))
}

// AttributeTraces attributes every sample of a `pprof -traces` listing to
// one bucket and returns each bucket's share of the total, so the shares
// sum to 1. A sample belongs to:
//
//   - runtime_gc when a background GC worker (mark, sweep, scavenge) is on
//     the stack, or the runtime frames at the leaf include mark work or a
//     write barrier (GC assists inside malloc count here too);
//   - otherwise, when the leaf is runtime code, runtime_maps if those
//     runtime frames include a map operation, runtime_alloc if they
//     include an allocation, and runtime_other if neither;
//   - otherwise the first frame, walking from the leaf, in one of the
//     listed deadlineqos/internal modules; standard-library code and the
//     unlisted internal helpers (units, xrand, topology, ...) count toward
//     that caller. A sample with no such frame is runtime_other.
func AttributeTraces(text string) (map[string]float64, error) {
	frac := map[string]float64{}
	for _, k := range selfFracModules {
		frac[k] = 0
	}
	for _, k := range runtimeBuckets {
		frac[k] = 0
	}
	var total float64
	var weight float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			frac[bucketOf(stack)] += weight
			total += weight
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case !strings.HasPrefix(line, " "):
			// Header lines: File, Type, Time, Duration.
		case len(stack) == 0:
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: sample line %q has no frame", line)
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %v", f[0], err)
			}
			weight = d.Seconds()
			stack = append(stack, f[1])
		default:
			stack = append(stack, strings.Fields(line)[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for k := range frac {
		frac[k] /= total
	}
	return frac, nil
}

// bucketOf classifies one sample's stack, leaf first.
func bucketOf(stack []string) string {
	for _, f := range stack {
		if hasAnyPrefix(f, "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge") {
			return "runtime_gc"
		}
	}
	// The runtime frames at the leaf. An asynchronous preemption marks
	// where the signal landed, not work of its own: skip it.
	i := 0
	var inRuntime, gc, maps, alloc bool
	for ; i < len(stack); i++ {
		f := stack[i]
		if f == "runtime.asyncPreempt" {
			continue
		}
		if !isRuntime(f) {
			break
		}
		inRuntime = true
		gc = gc || hasAnyPrefix(f, "gcWriteBarrier", "runtime.wbBufFlush", "runtime.gcAssist",
			"runtime.gcDrain", "runtime.scanobject", "runtime.markroot", "runtime.greyobject")
		maps = maps || hasAnyPrefix(f, "runtime.map", "runtime.makemap", "internal/runtime/maps.")
		alloc = alloc || hasAnyPrefix(f, "runtime.malloc", "runtime.newobject", "runtime.newarray",
			"runtime.growslice", "runtime.makeslice", "runtime.convT", "runtime.rawstring",
			"runtime.rawbyteslice", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)")
	}
	switch {
	case gc:
		return "runtime_gc"
	case maps:
		return "runtime_maps"
	case alloc:
		return "runtime_alloc"
	case inRuntime:
		return "runtime_other"
	}
	for _, f := range stack[i:] {
		if m, ok := strings.CutPrefix(pkgOf(f), "deadlineqos/internal/"); ok && slices.Contains(selfFracModules, m) {
			return m
		}
	}
	return "runtime_other"
}

// isRuntime reports whether a frame is Go runtime code; assembly stubs
// such as gcWriteBarrier2 carry no package qualifier.
func isRuntime(f string) bool {
	p := pkgOf(f)
	return p == "runtime" || strings.HasPrefix(p, "internal/runtime/") || !strings.Contains(f, ".")
}

// pkgOf returns the import path of a frame's function.
func pkgOf(f string) string {
	slash := strings.LastIndex(f, "/")
	if dot := strings.Index(f[slash+1:], "."); dot >= 0 {
		return f[:slash+1+dot]
	}
	return f
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
