package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/units"
)

// tinyOpt shrinks Quick further so each experiment completes in a couple
// of seconds: functional coverage of the harness, not statistics.
func tinyOpt() Options {
	o := Quick()
	o.Base.WarmUp = 500 * units.Microsecond
	o.Base.Measure = 5 * units.Millisecond
	o.Loads = []float64{0.3, 0.9}
	o.Archs = []arch.Arch{arch.Traditional2VC, arch.Ideal, arch.Advanced2VC}
	return o
}

func TestTable1(t *testing.T) {
	tb, err := Table1(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"Control", "Multimedia", "Best-effort", "Background", "MPEG-4"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(tb.Rows))
	}
}

func TestFig3(t *testing.T) {
	o := tinyOpt()
	o.Base.Measure = 25 * units.Millisecond // frames need a longer window
	f, err := AllFigures(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Fig3Latency.Rows) != len(o.Loads) {
		t.Fatalf("Fig3 latency rows = %d", len(f.Fig3Latency.Rows))
	}
	// The CDF must have counted frames for the EDF architectures.
	found := false
	for _, row := range f.Fig3CDF.Rows {
		if row[1] != "0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Fig3 CDF has no frame samples:\n%s", f.Fig3CDF.String())
	}
}

func TestOrderPenalty(t *testing.T) {
	tb, err := OrderPenalty(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("OrderPenalty rows = %d, want 6", len(tb.Rows))
	}
	// The Ideal row must read +0.0% by construction.
	if tb.Rows[0][3] != "+0.0%" {
		t.Errorf("Ideal relative latency = %q, want +0.0%%", tb.Rows[0][3])
	}
}

func TestVideoBand(t *testing.T) {
	o := tinyOpt()
	o.Base.Measure = 25 * units.Millisecond
	tb, err := VideoBand(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(o.Archs) {
		t.Fatalf("VideoBand rows = %d", len(tb.Rows))
	}
}

func TestAblations(t *testing.T) {
	o := tinyOpt()
	for name, fn := range map[string]func(Options) (tbl interface{ String() string }, err error){
		"eligible": func(o Options) (interface{ String() string }, error) { return AblationEligibleTime(o) },
		"buffer":   func(o Options) (interface{ String() string }, error) { return AblationBufferSize(o) },
		"skew":     func(o Options) (interface{ String() string }, error) { return AblationClockSkew(o) },
	} {
		tb, err := fn(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tb.String() == "" {
			t.Fatalf("%s: empty table", name)
		}
	}
}

func TestPaperOptionsShape(t *testing.T) {
	p := Paper()
	if p.Base.Topology.Hosts() != 128 {
		t.Errorf("Paper() hosts = %d, want 128", p.Base.Topology.Hosts())
	}
	if len(p.Loads) != 10 || len(p.Archs) != 4 {
		t.Errorf("Paper() sweep = %d loads x %d archs, want 10x4", len(p.Loads), len(p.Archs))
	}
}

func TestHotspotTolerance(t *testing.T) {
	o := tinyOpt()
	o.Archs = []arch.Arch{arch.Advanced2VC}
	tb, err := HotspotTolerance(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("hotspot rows = %d, want 2 (off/on)", len(tb.Rows))
	}
	if tb.Rows[0][1] != "off" || tb.Rows[1][1] != "on" {
		t.Fatalf("hotspot labels wrong: %v", tb.Rows)
	}
}

func TestVideoJitter(t *testing.T) {
	o := tinyOpt()
	o.Base.Measure = 25 * units.Millisecond
	tb, err := VideoJitter(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(o.Archs) {
		t.Fatalf("jitter rows = %d", len(tb.Rows))
	}
}

// tinyFigures runs AllFigures at tinyOpt once; TestFig2, TestFig4 and
// TestAllFiguresSharesSweep all read this one sweep.
var tinyFigures = sync.OnceValues(func() (*Figures, error) { return AllFigures(tinyOpt()) })

func TestFig2(t *testing.T) {
	o := tinyOpt()
	f, err := tinyFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Fig2Latency.Rows) != len(o.Loads) {
		t.Fatalf("Fig2 latency table has %d rows, want %d (loads)", len(f.Fig2Latency.Rows), len(o.Loads))
	}
	if len(f.Fig2CDF.Rows) != len(o.Archs) {
		t.Fatalf("Fig2 CDF table has %d rows, want %d (archs)", len(f.Fig2CDF.Rows), len(o.Archs))
	}
	if !strings.Contains(f.Plots[0].String(), "Control") {
		t.Error("Fig2 plot missing title")
	}
}

func TestFig4(t *testing.T) {
	o := tinyOpt()
	f, err := tinyFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Fig4Throughput.Header) != 1+2*len(o.Archs) {
		t.Fatalf("Fig4 header has %d columns, want %d (load + 2 per arch)",
			len(f.Fig4Throughput.Header), 1+2*len(o.Archs))
	}
	if len(f.Plots[2].Series) != 2*len(o.Archs) {
		t.Fatalf("Fig4 plot has %d series, want %d", len(f.Plots[2].Series), 2*len(o.Archs))
	}
}

func TestAllFiguresSharesSweep(t *testing.T) {
	f, err := tinyFigures()
	if err != nil {
		t.Fatal(err)
	}
	if f.Fig2Latency == nil || f.Fig2CDF == nil || f.Fig3Latency == nil ||
		f.Fig3CDF == nil || f.Fig4Throughput == nil {
		t.Fatal("AllFigures missing a table")
	}
	if len(f.Plots) != 3 {
		t.Fatalf("AllFigures plots = %d, want 3", len(f.Plots))
	}
}

func TestAblationVCTable(t *testing.T) {
	tb, err := AblationVCTable(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("vctable rows = %d, want 3", len(tb.Rows))
	}
	if tb.Rows[0][0] != "1:1" || tb.Rows[2][0] != "7:1" {
		t.Fatalf("vctable labels wrong: %v", tb.Rows)
	}
}

func TestManyVCs(t *testing.T) {
	tb, err := ManyVCs(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("manyvcs rows = %d, want 3", len(tb.Rows))
	}
	if tb.Rows[1][1] != "4" {
		t.Fatalf("Traditional 4 VCs row reports %s VCs", tb.Rows[1][1])
	}
}

func TestFig2Confidence(t *testing.T) {
	o := tinyOpt()
	o.Archs = []arch.Arch{arch.Traditional2VC, arch.Advanced2VC}
	o.Loads = []float64{0.4}
	o.Base.Measure = 3 * units.Millisecond
	tb, err := Fig2Confidence(o, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Distinct seeds must actually vary the runs.
	varied := false
	for _, cell := range tb.Rows[0][1:] {
		_, std, ok := strings.Cut(cell, "±")
		if !ok {
			t.Fatalf("cell %q missing ±", cell)
		}
		varied = varied || std != "0.00"
	}
	if !varied {
		t.Fatalf("every cell has zero std across seeds 1 and 2:\n%s", tb)
	}
}

func TestAblationXbarSpeedup(t *testing.T) {
	tb, err := AblationXbarSpeedup(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("speedup rows = %d, want 3", len(tb.Rows))
	}
	if tb.Rows[0][0] != "1.0x" {
		t.Fatalf("labels wrong: %v", tb.Rows)
	}
}

// TestCollectiveCompletion pins E3's shape: the deadline architectures
// complete every round by its deadline, while Traditional meets fewer
// deadlines and finishes at least 3x later than Advanced, or not at all.
// The rows must be identical on two shards.
func TestCollectiveCompletion(t *testing.T) {
	tb, err := CollectiveCompletion(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := CollectiveCompletion(tinyOpt().WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if sharded.String() != tb.String() {
		t.Fatalf("2-shard rows differ from the sequential run:\n%s\nsequential:\n%s", sharded, tb)
	}
	byArch := map[arch.Arch][]string{}
	for i, a := range tinyOpt().Archs {
		byArch[a] = tb.Rows[i]
	}
	var met, rounds int
	for _, a := range []arch.Arch{arch.Ideal, arch.Advanced2VC} {
		row := byArch[a]
		fmt.Sscanf(row[3], "%d/%d", &met, &rounds)
		all := fmt.Sprintf("%d/%d", rounds, rounds)
		if rounds == 0 || row[1] == "incomplete" || row[2] != all || row[3] != all {
			t.Errorf("%v did not complete every round on time: %v\n%s", a, row, tb)
		}
	}
	trad, adv := byArch[arch.Traditional2VC], byArch[arch.Advanced2VC]
	var tradMet int
	fmt.Sscanf(trad[3], "%d/%d", &tradMet, &rounds)
	if tradMet >= rounds {
		t.Errorf("Traditional met every round deadline:\n%s", tb)
	}
	if trad[1] != "incomplete" && completionMicros(t, trad[1]) < 3*completionMicros(t, adv[1]) {
		t.Errorf("Traditional finished within 3x of Advanced:\n%s", tb)
	}
}

// completionMicros parses a completion cell (units.Time rendering, "us" or
// "ms") back to microseconds.
func completionMicros(t *testing.T, cell string) float64 {
	t.Helper()
	var v float64
	switch {
	case strings.HasSuffix(cell, "us"):
		fmt.Sscanf(cell, "%fus", &v)
	case strings.HasSuffix(cell, "ms"):
		fmt.Sscanf(cell, "%fms", &v)
		v *= 1000
	}
	if v <= 0 {
		t.Fatalf("unparsable completion %q", cell)
	}
	return v
}

func TestChurn(t *testing.T) {
	tb, err := Churn(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("churn rows = %d, want 12 (2 loads x 3 rates x faults off/on)", len(tb.Rows))
	}
	// The most aggressive arrival rate at 100% load must overload the CAC:
	// its accept column cannot read 1.000.
	saturated := tb.Rows[len(tb.Rows)-2]
	if saturated[4] == "1.000" {
		t.Errorf("accept ratio 1.000 at saturating churn:\n%s", tb.String())
	}
	for _, row := range tb.Rows {
		if row[5] == "0.00" {
			t.Errorf("setup p50 reads zero — in-band latency not measured: %v", row)
		}
	}
}

func TestPolicies(t *testing.T) {
	o := tinyOpt()
	o.Base.Measure = 8 * units.Millisecond
	tb, err := Policies(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("policy rows = %d, want 4:\n%s", len(tb.Rows), tb.String())
	}
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	for _, name := range []string{"default", "coflow-edf", "value-drop", "value-drop-tail"} {
		if byName[name] == nil {
			t.Fatalf("missing policy row %q:\n%s", name, tb.String())
		}
	}
	// The coflow-deadline policy must serve the collective at least as well
	// as per-packet EDF on the same admitted workload.
	var cofMet, defMet, rounds int
	fmt.Sscanf(byName["coflow-edf"][3], "%d/%d", &cofMet, &rounds)
	fmt.Sscanf(byName["default"][3], "%d/%d", &defMet, &rounds)
	if cofMet < defMet {
		t.Errorf("coflow-edf deadline-met %d < default %d:\n%s", cofMet, defMet, tb.String())
	}
	// Value-aware eviction must beat blind tail drop on weighted goodput.
	var valueDrop, tailDrop float64
	fmt.Sscanf(byName["value-drop"][6], "%f", &valueDrop)
	fmt.Sscanf(byName["value-drop-tail"][6], "%f", &tailDrop)
	if valueDrop <= tailDrop {
		t.Errorf("value-drop goodput %.3f <= tail-drop %.3f:\n%s", valueDrop, tailDrop, tb.String())
	}
	// Both droppers actually shed under the hotspot.
	for _, name := range []string{"value-drop", "value-drop-tail"} {
		if byName[name][7] == "0" {
			t.Errorf("%s row reports no evictions:\n%s", name, tb.String())
		}
	}
}

func TestChaos(t *testing.T) {
	opt := tinyOpt()
	opt.Archs = []arch.Arch{arch.Advanced2VC}
	tb, err := Chaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	if !strings.Contains(out, "Advanced") {
		t.Errorf("chaos table missing architecture:\n%s", out)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("chaos table has %d rows, want 2 (off/on)", len(tb.Rows))
	}
}

// runnerBase is a 2 ms run on the quick network: enough traffic to tell
// two configs apart, cheap enough to run a batch twice.
func runnerBase() network.Config {
	cfg := network.SmallConfig()
	cfg.WarmUp = 200 * units.Microsecond
	cfg.Measure = 2 * units.Millisecond
	return cfg
}

func TestGridOrder(t *testing.T) {
	base := runnerBase()
	cfgs := grid(base, []arch.Arch{arch.Ideal, arch.Advanced2VC}, []float64{0.2, 0.5})
	want := []struct {
		a arch.Arch
		l float64
	}{{arch.Ideal, 0.2}, {arch.Ideal, 0.5}, {arch.Advanced2VC, 0.2}, {arch.Advanced2VC, 0.5}}
	if len(cfgs) != len(want) {
		t.Fatalf("grid returned %d configs, want %d", len(cfgs), len(want))
	}
	for i, c := range cfgs {
		if c.Arch != want[i].a || c.Load != want[i].l || c.Seed != base.Seed {
			t.Errorf("config %d = (%v, %v, seed %d), want (%v, %v, seed %d)",
				i, c.Arch, c.Load, c.Seed, want[i].a, want[i].l, base.Seed)
		}
	}
}

// TestRunAllParallelMatchesSerial runs one batch of six distinct configs
// on one worker and on four: every index must hold the same run.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	cfgs := grid(runnerBase(), []arch.Arch{arch.Ideal, arch.Simple2VC, arch.Advanced2VC}, []float64{0.4, 0.8})
	snapshots := func(par int) []string {
		results, err := Options{Parallelism: par}.runAll(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(results))
		for i, r := range results {
			var b bytes.Buffer
			if err := r.Snapshot("run").WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			out[i] = b.String()
		}
		return out
	}
	serial, parallel := snapshots(1), snapshots(4)
	for i := range cfgs {
		if serial[i] != parallel[i] {
			t.Errorf("run %d differs between 1 and 4 workers:\n%s\nvs\n%s", i, serial[i], parallel[i])
		}
	}
}

// TestWorkerCount pins the runner's default pool size: GOMAXPROCS shared
// among each run's shard goroutines, so sharded runs do not oversubscribe
// the cores; an explicit Parallelism wins.
func TestWorkerCount(t *testing.T) {
	for _, c := range []struct{ par, shards, procs, want int }{
		{0, 0, 4, 4},
		{0, 1, 4, 4},
		{0, 2, 4, 2},
		{0, 2, 2, 1},
		{0, 3, 8, 2},
		{0, 8, 4, 1},
		{3, 2, 4, 3},
		{1, 1, 8, 1},
	} {
		if got := workerCount(c.par, c.shards, c.procs); got != c.want {
			t.Errorf("workerCount(par %d, shards %d, procs %d) = %d, want %d",
				c.par, c.shards, c.procs, got, c.want)
		}
	}
}

func TestRunAllNamesLowestFailure(t *testing.T) {
	cfgs := grid(runnerBase(), []arch.Arch{arch.Ideal, arch.Advanced2VC}, []float64{0.2, 0.4, 0.6})
	cfgs[2].ControlDests = 0 // invalid
	cfgs[4].ControlDests = 0
	_, err := Options{Parallelism: 4}.runAll(cfgs)
	if err == nil {
		t.Fatal("runAll accepted a batch with invalid configs")
	}
	want := fmt.Sprintf("run 2 (%v, load 0.6, seed %d)", arch.Ideal, cfgs[2].Seed)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

// cell parses a numeric table cell, ignoring a trailing % or /ms.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(s, "%"), "/ms"), 64)
	if err != nil {
		t.Fatalf("unparsable cell %q", s)
	}
	return v
}

// TestDeadlineSlack pins E4's claim: the deadline architecture delivers
// Control traffic with more slack than Traditional at full load.
func TestDeadlineSlack(t *testing.T) {
	tb, err := DeadlineSlack(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	slack := map[string]float64{}
	for _, row := range tb.Rows {
		if row[1] == packet.Control.String() {
			slack[row[0]] = cell(t, row[2])
		}
	}
	trad, adv := slack[arch.Traditional2VC.String()], slack[arch.Advanced2VC.String()]
	if adv <= trad {
		t.Errorf("Advanced mean Control slack %.2f us <= Traditional's %.2f us:\n%s", adv, trad, tb)
	}
}

// TestAvailability pins E6's claims: halving the switch MTTF adds
// outages, and every outage discards what the dead switch held, more of
// it as outages accumulate.
func TestAvailability(t *testing.T) {
	tb, err := Availability(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("availability rows = %d, want 3", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		if cell(t, row[10]) == 0 {
			t.Errorf("MTTF %s: no switch drops:\n%s", row[0], tb)
		}
		if i > 0 && (cell(t, row[1]) <= cell(t, tb.Rows[i-1][1]) || cell(t, row[10]) <= cell(t, tb.Rows[i-1][10])) {
			t.Errorf("MTTF %s: outages or switch drops did not grow:\n%s", row[0], tb)
		}
	}
}

// TestSurvivable pins E7's claim: while the root CAC host is dark, the
// centralised plane grants nothing and the delegated plane keeps granting.
func TestSurvivable(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("E7 runs four 61 ms flash-crowd simulations")
	}
	tb, err := Survivable(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("survivable rows = %d, want 4", len(tb.Rows))
	}
	central, delegated := tb.Rows[1], tb.Rows[3]
	if central[0] != "centralised" || central[1] != "on" || delegated[0] != "delegated" || delegated[1] != "on" {
		t.Fatalf("row order wrong:\n%s", tb)
	}
	if cell(t, central[11]) != 0 {
		t.Errorf("centralised grants floor %s with the root dark, want 0/ms:\n%s", central[11], tb)
	}
	if cell(t, delegated[11]) == 0 {
		t.Errorf("delegated grants floor is 0/ms with the root dark:\n%s", tb)
	}
}

// TestProtection pins E9's claims: an unpoliced rogue half of the fabric
// makes innocent flows miss, the policer plus the occupancy guard
// restores them, and the policer flags forged deadline stamps.
func TestProtection(t *testing.T) {
	tb, err := Protection(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("protection rows = %d, want 9", len(tb.Rows))
	}
	rogue, protected, forge, policedForge := tb.Rows[2], tb.Rows[5], tb.Rows[7], tb.Rows[8]
	if rogue[0] != "rogue" || rogue[1] != "off" || rogue[2] != "off" ||
		protected[0] != "rogue" || protected[1] != "on" || protected[2] == "off" ||
		policedForge[0] != "forge" || policedForge[1] != "on" {
		t.Fatalf("row order wrong:\n%s", tb)
	}
	if cell(t, protected[3]) >= cell(t, rogue[3])/10 {
		t.Errorf("police+guard innocent miss %s%% is not a tenth of the unprotected %s%%:\n%s",
			protected[3], rogue[3], tb)
	}
	if forge[8] != "0" || cell(t, policedForge[8]) == 0 {
		t.Errorf("forged counts: unpoliced %s, policed %s; want 0 and > 0:\n%s", forge[8], policedForge[8], tb)
	}
}

// TestGrayDrain pins E9b's claim: the armed detector flags the slow-drain
// links, reroutes flows around them and lowers the frame miss rate.
func TestGrayDrain(t *testing.T) {
	tb, err := GrayDrain(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 || tb.Rows[0][0] != "off" || tb.Rows[1][0] != "on" {
		t.Fatalf("gray rows wrong:\n%s", tb)
	}
	off, on := tb.Rows[0], tb.Rows[1]
	if cell(t, on[1]) == 0 || cell(t, on[2]) == 0 {
		t.Errorf("detector on: %s detections, %s flows rerouted; want both > 0:\n%s", on[1], on[2], tb)
	}
	if cell(t, on[4]) >= cell(t, off[4]) {
		t.Errorf("frame miss %s%% with the detector is not below %s%% without:\n%s", on[4], off[4], tb)
	}
}
