package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"deadlineqos/internal/units"
)

// Time-series telemetry: periodic probes of per-switch/per-port queue
// state, credit balance, take-over and order-error activity, plus engine
// progress. The network layer fills these containers on a fixed probe
// interval; the containers only hold and serialise the samples, so they
// can be consumed from tests, CLIs and notebooks alike.

// PortSample is one probe of one switch port. Occupancy covers both
// directions of the port: the input side's VOQs and the output side's
// buffers. Rates are per-second over the interval since the previous
// probe.
type PortSample struct {
	T      units.Time `json:"t"`
	Switch int        `json:"switch"`
	Port   int        `json:"port"`
	// Occupancy at the probe instant.
	InPackets  int        `json:"in_packets"`
	InBytes    units.Size `json:"in_bytes"`
	OutPackets int        `json:"out_packets"`
	OutBytes   units.Size `json:"out_bytes"`
	// CreditBytes is the sender-side credit balance of the port's
	// outgoing link, summed over VCs (how many bytes the port may still
	// push downstream before stalling).
	CreditBytes units.Size `json:"credit_bytes"`
	// Cumulative take-over diversions and order errors on the port's
	// buffers, plus their rates since the previous probe.
	TakeOvers    uint64  `json:"takeovers"`
	OrderErrors  uint64  `json:"order_errors"`
	TakeOverRate float64 `json:"takeover_per_sec"`
	OrderErrRate float64 `json:"order_err_per_sec"`
	// LinkUtilization is the fraction of the interval the outgoing link
	// spent transmitting.
	LinkUtilization float64 `json:"link_utilization"`
}

// EngineSample is one probe of simulation progress.
type EngineSample struct {
	T units.Time `json:"t"`
	// Events is the cumulative count of fired events; Pending the event
	// queue depth at the probe.
	Events  uint64 `json:"events"`
	Pending int    `json:"pending"`
	// EventRate is fired events per simulated second since the previous
	// probe.
	EventRate float64 `json:"events_per_sim_sec"`
}

// SessionSample is one probe of one CAC entity of the dynamic session
// subsystem — the root manager (Pod -1) or one pod delegate — taken on
// the shard owning the entity's host (all sampled state lives there, so
// the (T, Pod, Host)-sorted series is identical at every shard count).
type SessionSample struct {
	T units.Time `json:"t"`
	// Pod is the entity's leaf switch, -1 for the root manager; Host is
	// the CAC host the row samples.
	Pod  int `json:"pod"`
	Host int `json:"host"`
	// Active is the number of granted, not-yet-released sessions;
	// ReservedBW their reserved bandwidth sum in bytes/ns.
	Active     int     `json:"active"`
	ReservedBW float64 `json:"reserved_bw"`
	// Cumulative CAC decisions of this entity up to the probe (a
	// delegate's Accepted counts its local grants).
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Revoked  uint64 `json:"revoked"`
	// Lease state (delegates only): the leased capacity fraction and the
	// worst reserved-to-lease utilisation across the pod's links.
	LeaseFrac float64 `json:"lease_frac"`
	LeaseUtil float64 `json:"lease_util"`
	// Control-queue occupancy at the probe and cumulative setups shed.
	QueueDepth int    `json:"queue_depth"`
	Shed       uint64 `json:"shed"`
}

// Telemetry holds a run's time series.
type Telemetry struct {
	Interval units.Time      `json:"interval_ns"`
	Ports    []PortSample    `json:"ports,omitempty"`
	Engine   []EngineSample  `json:"engine,omitempty"`
	Sessions []SessionSample `json:"sessions,omitempty"`
}

// Absorb appends other's samples into t. Used by the sharded network,
// which probes each shard's switches on that shard's engine; call Sort
// after the last Absorb to restore the sequential probe order.
func (t *Telemetry) Absorb(other *Telemetry) {
	if other == nil {
		return
	}
	t.Ports = append(t.Ports, other.Ports...)
	t.Engine = append(t.Engine, other.Engine...)
	t.Sessions = append(t.Sessions, other.Sessions...)
}

// Sort orders the port series by (time, switch, port) — exactly the order
// a sequential probe pass appends in, since each tick walks switches and
// ports in index order — and the engine series by time.
func (t *Telemetry) Sort() {
	sort.SliceStable(t.Ports, func(i, j int) bool {
		a, b := &t.Ports[i], &t.Ports[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		return a.Port < b.Port
	})
	sort.SliceStable(t.Engine, func(i, j int) bool { return t.Engine[i].T < t.Engine[j].T })
	sort.SliceStable(t.Sessions, func(i, j int) bool {
		a, b := &t.Sessions[i], &t.Sessions[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Pod != b.Pod {
			return a.Pod < b.Pod
		}
		return a.Host < b.Host
	})
}

// WriteSessionsCSV writes the session series as CSV.
func (t *Telemetry) WriteSessionsCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"t_ns,pod,host,active,reserved_bw,accepted,rejected,revoked,lease_frac,lease_util,queue_depth,shed\n"); err != nil {
		return fmt.Errorf("trace: writing session CSV: %w", err)
	}
	buf := make([]byte, 0, 160)
	for i := range t.Sessions {
		s := &t.Sessions[i]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(s.T), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Pod), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Host), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Active), 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.ReservedBW, 'g', 9, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.Accepted, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.Rejected, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.Revoked, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.LeaseFrac, 'g', 9, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.LeaseUtil, 'g', 9, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.QueueDepth), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.Shed, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("trace: writing session CSV: %w", err)
		}
	}
	return nil
}

// WriteCSV writes the per-port series as CSV (one row per port per
// probe), ready for pandas/gnuplot.
func (t *Telemetry) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"t_ns,switch,port,in_packets,in_bytes,out_packets,out_bytes,credit_bytes,takeovers,order_errors,takeover_per_sec,order_err_per_sec,link_utilization\n"); err != nil {
		return fmt.Errorf("trace: writing telemetry CSV: %w", err)
	}
	buf := make([]byte, 0, 160)
	for i := range t.Ports {
		s := &t.Ports[i]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(s.T), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Switch), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.Port), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.InPackets), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.InBytes), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.OutPackets), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.OutBytes), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.CreditBytes), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.TakeOvers, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.OrderErrors, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.TakeOverRate, 'g', 6, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.OrderErrRate, 'g', 6, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.LinkUtilization, 'f', 4, 64)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("trace: writing telemetry CSV: %w", err)
		}
	}
	return nil
}

// WriteJSON serialises the full telemetry (ports + engine series).
func (t *Telemetry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: writing telemetry JSON: %w", err)
	}
	return nil
}

// Profile summarises one run's engine performance: how fast the simulator
// chewed through events and what it cost in wall clock and allocations.
// Allocation counters are process-wide deltas around the run — accurate
// for a single-run process (cmd/qosim, benchmarks), approximate when
// other goroutines allocate concurrently (parallel harness sweeps).
type Profile struct {
	Events       uint64  `json:"events"`
	MaxPending   int     `json:"max_pending"`
	SimulatedNs  int64   `json:"simulated_ns"`
	WallNs       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	// WallPerSimSec is wall-clock seconds spent per simulated second.
	WallPerSimSec float64 `json:"wall_per_sim_sec"`
	Mallocs       uint64  `json:"mallocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	// MallocsPerEvent / AllocBytesPerEvent normalise the allocation
	// counters per executed event — the steady-state allocation pressure
	// of the hot loop, the number the perf-regression gate watches
	// alongside events_per_sec.
	MallocsPerEvent    float64 `json:"mallocs_per_event"`
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event"`
}

// Finalize derives the rate fields from the raw counters.
func (p *Profile) Finalize() {
	if p.WallNs > 0 {
		p.EventsPerSec = float64(p.Events) / (float64(p.WallNs) / 1e9)
	}
	if p.SimulatedNs > 0 {
		p.WallPerSimSec = float64(p.WallNs) / float64(p.SimulatedNs)
	}
	if p.Events > 0 {
		p.MallocsPerEvent = float64(p.Mallocs) / float64(p.Events)
		p.AllocBytesPerEvent = float64(p.AllocBytes) / float64(p.Events)
	}
}

// String renders the profile as a one-line report.
func (p *Profile) String() string {
	return fmt.Sprintf(
		"events=%d maxPending=%d wall=%.1fms sim=%v rate=%.2fM ev/s wall/sim=%.1f allocs=%d (%.1f MiB, %.3f/ev)",
		p.Events, p.MaxPending, float64(p.WallNs)/1e6, units.Time(p.SimulatedNs),
		p.EventsPerSec/1e6, p.WallPerSimSec, p.Mallocs, float64(p.AllocBytes)/(1<<20),
		p.MallocsPerEvent)
}
