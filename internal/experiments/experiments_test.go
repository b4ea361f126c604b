package experiments

import (
	"fmt"
	"strings"
	"testing"

	"deadlineqos/internal/arch"
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

func TestFig2(t *testing.T) {
	lat, cdf, plot, err := Fig2(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) != 2 {
		t.Fatalf("Fig2 latency table has %d rows, want 2 (loads)", len(lat.Rows))
	}
	if len(cdf.Rows) != 3 {
		t.Fatalf("Fig2 CDF table has %d rows, want 3 (archs)", len(cdf.Rows))
	}
	if !strings.Contains(plot.String(), "Control") {
		t.Error("Fig2 plot missing title")
	}
}

func TestFig3(t *testing.T) {
	o := tinyOpt()
	o.Base.Measure = 25 * units.Millisecond // frames need a longer window
	lat, cdf, _, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) != len(o.Loads) {
		t.Fatalf("Fig3 latency rows = %d", len(lat.Rows))
	}
	// The CDF must have counted frames for the EDF architectures.
	found := false
	for _, row := range cdf.Rows {
		if row[1] != "0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Fig3 CDF has no frame samples:\n%s", cdf.String())
	}
}

func TestFig4(t *testing.T) {
	tb, plot, err := Fig4(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Header) != 1+2*3 {
		t.Fatalf("Fig4 header has %d columns, want 7 (load + 2 per arch)", len(tb.Header))
	}
	if len(plot.Series) != 6 {
		t.Fatalf("Fig4 plot has %d series, want 6", len(plot.Series))
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

func TestAllFiguresSharesSweep(t *testing.T) {
	o := tinyOpt()
	f, err := AllFigures(o)
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
	// Same rows as the standalone builders would produce.
	if len(f.Fig2Latency.Rows) != len(o.Loads) {
		t.Fatalf("Fig2 rows = %d, want %d", len(f.Fig2Latency.Rows), len(o.Loads))
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
	for _, cell := range tb.Rows[0][1:] {
		if !strings.Contains(cell, "±") {
			t.Fatalf("cell %q missing ±", cell)
		}
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
