package bench

import (
	"math"
	"testing"
)

// syntheticTraces is a `go tool pprof -traces` listing with one sample of
// each attribution rule; the weights are chosen so every share is exact.
const syntheticTraces = `File: benchrun
Type: cpu
Duration: 1s, Total samples = 1s (100.00%)
-----------+-------------------------------------------------------
     400ms   deadlineqos/internal/sim.(*Engine).siftDown
             deadlineqos/internal/sim.(*Engine).Run
             main.main
-----------+-------------------------------------------------------
     100ms   deadlineqos/internal/pqueue.(*fifoQueue).front (inline)
             deadlineqos/internal/switchsim.(*Switch).tryXbar
-----------+-------------------------------------------------------
      50ms   container/heap.down
             deadlineqos/internal/xrand.(*Rand).Uint64
             deadlineqos/internal/traffic.(*Source).emit
-----------+-------------------------------------------------------
      50ms   runtime.asyncPreempt
             deadlineqos/internal/link.(*Link).Send
-----------+-------------------------------------------------------
     100ms   runtime.nextFreeFast
             runtime.mallocgc
             runtime.newobject
             deadlineqos/internal/link.(*Link).Send
-----------+-------------------------------------------------------
      50ms   runtime.memmove
             runtime.growslice
             internal/runtime/maps.(*table).grow
             runtime.mapassign_fast64
             deadlineqos/internal/hostif.(*Host).emit
-----------+-------------------------------------------------------
     100ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   runtime.scanobject
             runtime.gcAssistAlloc
             runtime.mallocgc
             deadlineqos/internal/packet.New
-----------+-------------------------------------------------------
      50ms   runtime.futex
             runtime.notesleep
             deadlineqos/internal/parsim.Run
-----------+-------------------------------------------------------
      50ms   deadlineqos/internal/bench.RunRep
             main.main
-----------+-------------------------------------------------------
`

func TestAttributeTraces(t *testing.T) {
	got, err := AttributeTraces(syntheticTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":           0.4,
		"pqueue":        0.1,  // its own leaf, not the calling switch
		"traffic":       0.05, // stdlib and unlisted xrand count toward the caller
		"link":          0.05, // the preemption point is skipped
		"runtime_alloc": 0.1,
		"runtime_maps":  0.05, // a map operation's allocation counts as maps
		"runtime_gc":    0.15, // background worker plus the assist inside malloc
		"runtime_other": 0.1,  // runtime leaf without alloc/map, and no listed module
	}
	if len(got) != len(selfFracModules)+len(runtimeBuckets) {
		t.Errorf("got %d buckets, want one per module and runtime bucket", len(got))
	}
	var sum float64
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", k, v, want[k])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestAttributeTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := AttributeTraces("File: x\nType: cpu\n"); err == nil {
		t.Fatal("a listing without samples must be an error")
	}
}
