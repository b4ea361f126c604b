// Package traffic implements the workload generators of the paper's
// evaluation (Table 1, §4.2), following the Network Processing Forum switch
// fabric benchmark recommendations the paper cites:
//
//   - Control: latency-critical small messages, sizes uniform in
//     [128 B, 2 KB], Poisson arrivals, random destinations.
//   - Video: synthetic MPEG-4 streams — one frame every 40 ms, an
//     IBBPBBPBBPBB group-of-pictures with normally distributed I/P/B frame
//     sizes clamped to the paper's [1 KB, 120 KB] range. (The paper plays
//     real MPEG-4 traces; the GoP model reproduces the property that
//     matters here: large frame-to-frame size variation at a fixed frame
//     cadence. See DESIGN.md.)
//   - SelfSimilar: internet-like best-effort traffic — bursts of
//     application frames to a single destination, with heavy-tailed
//     (bounded Pareto) frame sizes per Jain's methodology and heavy-tailed
//     burst lengths, paced to a configured long-term average rate.
//
// Every source owns a private random stream, so a workload is reproducible
// from its seed and identical across the four switch architectures.
package traffic

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// Source is a traffic generator; Start schedules its first event.
type Source interface {
	Start()
	Name() string
}

// rearm posts a source's next emission, delay cycles from now, to tick:
// its emit method, bound once at Start so re-arming allocates nothing.
func rearm(eng *sim.Engine, delay units.Time, tick sim.Handler) {
	eng.Post(eng.Now()+delay, 0, sim.Payload{H: tick, Kind: sim.KindEmit})
}

// --- Control --------------------------------------------------------------

// ControlConfig parameterises a control-traffic source.
type ControlConfig struct {
	Eng  *sim.Engine
	Host *hostif.Host
	Rng  *xrand.Rand
	// Flows lists one registered flow per destination; each message picks
	// one uniformly (random destinations).
	Flows []packet.FlowID
	// Rate is the long-term average offered bandwidth.
	Rate units.Bandwidth
	// Message payload bounds (Table 1: 128 B .. 2 KB).
	MinMsg, MaxMsg units.Size
}

// Control generates Poisson-arriving small control messages.
type Control struct {
	cfg      ControlConfig
	meanMsg  float64
	messages uint64
	tick     sim.Handler // emit, bound at Start
}

// NewControl returns a control source. It panics on an empty flow list or
// non-positive rate (configuration bugs).
func NewControl(cfg ControlConfig) *Control {
	if len(cfg.Flows) == 0 {
		panic("traffic: control source without flows")
	}
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("traffic: control rate %v", cfg.Rate))
	}
	if cfg.MinMsg <= 0 || cfg.MaxMsg < cfg.MinMsg {
		panic("traffic: bad control message bounds")
	}
	return &Control{cfg: cfg, meanMsg: float64(cfg.MinMsg+cfg.MaxMsg) / 2}
}

// Name identifies the source.
func (c *Control) Name() string { return "control" }

// Start schedules the first message after a random fraction of one mean
// inter-arrival, desynchronising the hosts.
func (c *Control) Start() {
	mean := c.meanInterval()
	c.tick = sim.Func(c.emit)
	rearm(c.cfg.Eng, units.Time(c.cfg.Rng.Float64()*mean), c.tick)
}

// meanInterval returns the mean inter-arrival time in cycles.
func (c *Control) meanInterval() float64 { return c.meanMsg / float64(c.cfg.Rate) }

func (c *Control) emit() {
	flow := c.cfg.Flows[c.cfg.Rng.Intn(len(c.cfg.Flows))]
	size := units.Size(c.cfg.Rng.UniformInt(int64(c.cfg.MinMsg), int64(c.cfg.MaxMsg)))
	c.cfg.Host.SubmitMessage(flow, size)
	c.messages++
	rearm(c.cfg.Eng, units.Time(c.cfg.Rng.Exp(c.meanInterval()))+1, c.tick)
}

// Messages returns how many messages this source has emitted.
func (c *Control) Messages() uint64 { return c.messages }

// --- Video ------------------------------------------------------------------

// GoP describes the MPEG group-of-pictures model: the frame-type pattern
// and per-type size distributions (normal, clamped to [Min, Max]).
type GoP struct {
	Pattern       string // e.g. "IBBPBBPBBPBB"
	IMean, ISigma units.Size
	PMean, PSigma units.Size
	BMean, BSigma units.Size
	Min, Max      units.Size
}

// DefaultGoP is the evaluation's MPEG-4 model: 12-frame IBBPBBPBBPBB with
// frame sizes spanning the paper's [1 KB, 120 KB] range, mean ~40 KB per
// frame (≈1 MB/s per stream at 25 frames/s).
func DefaultGoP() GoP {
	return GoP{
		Pattern: "IBBPBBPBBPBB",
		IMean:   100 * units.Kilobyte, ISigma: 12 * units.Kilobyte,
		PMean: 60 * units.Kilobyte, PSigma: 12 * units.Kilobyte,
		BMean: 25 * units.Kilobyte, BSigma: 8 * units.Kilobyte,
		Min: 1 * units.Kilobyte, Max: 120 * units.Kilobyte,
	}
}

// MeanFrame returns the expected frame size of the model (before
// clamping, which is symmetric enough to ignore for provisioning).
func (g GoP) MeanFrame() units.Size {
	if len(g.Pattern) == 0 {
		return 0
	}
	var sum units.Size
	for _, f := range g.Pattern {
		switch f {
		case 'I':
			sum += g.IMean
		case 'P':
			sum += g.PMean
		default:
			sum += g.BMean
		}
	}
	return sum / units.Size(len(g.Pattern))
}

// MeanRate returns the stream's expected average bandwidth for a given
// frame period, used by admission control.
func (g GoP) MeanRate(period units.Time) units.Bandwidth {
	return units.Bandwidth(float64(g.MeanFrame()) / float64(period))
}

// VideoConfig parameterises one MPEG stream source.
type VideoConfig struct {
	Eng    *sim.Engine
	Host   *hostif.Host
	Rng    *xrand.Rand
	Flow   packet.FlowID
	Period units.Time // frame cadence (40 ms in the paper)
	GoP    GoP
}

// Video generates one synthetic MPEG stream.
type Video struct {
	cfg    VideoConfig
	frame  int // index into the GoP pattern
	frames uint64
	tick   sim.Handler // emit, bound at Start
}

// NewVideo returns a video source.
func NewVideo(cfg VideoConfig) *Video {
	if cfg.Period <= 0 {
		panic("traffic: video period must be positive")
	}
	if len(cfg.GoP.Pattern) == 0 {
		panic("traffic: empty GoP pattern")
	}
	return &Video{cfg: cfg}
}

// Name identifies the source.
func (v *Video) Name() string { return "video" }

// Start begins the stream at a random phase within one frame period (real
// streams are not synchronised across hosts).
func (v *Video) Start() {
	v.frame = v.cfg.Rng.Intn(len(v.cfg.GoP.Pattern))
	v.tick = sim.Func(v.emit)
	rearm(v.cfg.Eng, units.Time(v.cfg.Rng.Int63n(int64(v.cfg.Period))), v.tick)
}

func (v *Video) emit() {
	g := v.cfg.GoP
	var mean, sigma units.Size
	switch g.Pattern[v.frame%len(g.Pattern)] {
	case 'I':
		mean, sigma = g.IMean, g.ISigma
	case 'P':
		mean, sigma = g.PMean, g.PSigma
	default:
		mean, sigma = g.BMean, g.BSigma
	}
	size := units.Size(v.cfg.Rng.Normal(float64(mean), float64(sigma)))
	if size < g.Min {
		size = g.Min
	}
	if size > g.Max {
		size = g.Max
	}
	v.cfg.Host.SubmitMessage(v.cfg.Flow, size)
	v.frames++
	v.frame++
	rearm(v.cfg.Eng, v.cfg.Period, v.tick)
}

// Frames returns how many frames this stream has emitted.
func (v *Video) Frames() uint64 { return v.frames }

// --- SelfSimilar ---------------------------------------------------------------

// SelfSimilarConfig parameterises an internet-like best-effort source.
type SelfSimilarConfig struct {
	Eng  *sim.Engine
	Host *hostif.Host
	Rng  *xrand.Rand
	// Flows lists one registered flow per destination; each burst heads
	// to a single randomly chosen destination (§4.2).
	Flows []packet.FlowID
	// Rate is the long-term average offered bandwidth the source paces
	// itself to.
	Rate units.Bandwidth
	// Application frame size bounds (Table 1: 128 B .. 100 KB) and the
	// Pareto shape of the size distribution.
	MinFrame, MaxFrame units.Size
	SizeAlpha          float64
	// Burst length (frames per burst) is 1 + Pareto(BurstAlpha, 1),
	// heavy-tailed.
	BurstAlpha float64
}

// SelfSimilar generates heavy-tailed bursts of frames to random
// destinations.
type SelfSimilar struct {
	cfg    SelfSimilarConfig
	size   xrand.BoundedPareto // frame sizes in bytes
	bursts uint64
	tick   sim.Handler // emit, bound at Start
}

// NewSelfSimilar returns a best-effort source with validated parameters.
func NewSelfSimilar(cfg SelfSimilarConfig) *SelfSimilar {
	if len(cfg.Flows) == 0 {
		panic("traffic: self-similar source without flows")
	}
	if cfg.Rate <= 0 {
		panic("traffic: self-similar rate must be positive")
	}
	if cfg.SizeAlpha <= 1 || cfg.BurstAlpha <= 1 {
		// Shapes <= 1 have unbounded mean: the pacing would diverge.
		panic("traffic: Pareto shape parameters must exceed 1")
	}
	return &SelfSimilar{
		cfg:  cfg,
		size: xrand.NewBoundedPareto(cfg.SizeAlpha, float64(cfg.MinFrame), float64(cfg.MaxFrame)),
	}
}

// Name identifies the source.
func (s *SelfSimilar) Name() string { return "selfsimilar" }

// Start schedules the first burst with a random desynchronising offset.
func (s *SelfSimilar) Start() {
	s.tick = sim.Func(s.emit)
	rearm(s.cfg.Eng, units.Time(s.cfg.Rng.Int63n(1000)+1), s.tick)
}

func (s *SelfSimilar) emit() {
	flow := s.cfg.Flows[s.cfg.Rng.Intn(len(s.cfg.Flows))]
	frames := 1 + int(s.cfg.Rng.Pareto(s.cfg.BurstAlpha, 1))
	if frames > 64 {
		frames = 64 // cap pathological bursts to keep pacing responsive
	}
	var burstBytes units.Size
	for i := 0; i < frames; i++ {
		size := units.Size(s.size.Draw(s.cfg.Rng))
		s.cfg.Host.SubmitMessage(flow, size)
		burstBytes += size
	}
	s.bursts++
	// Pace to the configured long-term rate: the next burst starts after
	// the time this burst "costs" at the average rate. Inside a burst the
	// instantaneous rate is only bounded by the injection link — exactly
	// the bursty behaviour self-similar models capture.
	gap := units.Time(float64(burstBytes)/float64(s.cfg.Rate)) + 1
	rearm(s.cfg.Eng, gap, s.tick)
}

// Bursts returns how many bursts this source has emitted.
func (s *SelfSimilar) Bursts() uint64 { return s.bursts }

// --- CBR ---------------------------------------------------------------------

// CBRConfig parameterises a constant-bit-rate source: fixed-size messages
// at a fixed cadence on one flow. CBR streams are the classic admission-
// control workload (ATM CBR / InfiniBand rate-reserved channels) and the
// cleanest probe for jitter measurements.
type CBRConfig struct {
	Eng  *sim.Engine
	Host *hostif.Host
	Rng  *xrand.Rand
	Flow packet.FlowID
	// MessageSize is the fixed payload per message.
	MessageSize units.Size
	// Interval is the fixed message cadence.
	Interval units.Time
}

// CBR generates fixed-size messages at a fixed rate.
type CBR struct {
	cfg      CBRConfig
	messages uint64
	tick     sim.Handler // emit, bound at Start
}

// NewCBR returns a CBR source with validated parameters.
func NewCBR(cfg CBRConfig) *CBR {
	if cfg.MessageSize <= 0 {
		panic("traffic: CBR message size must be positive")
	}
	if cfg.Interval <= 0 {
		panic("traffic: CBR interval must be positive")
	}
	return &CBR{cfg: cfg}
}

// Name identifies the source.
func (c *CBR) Name() string { return "cbr" }

// Rate returns the stream's average bandwidth, for admission control.
func (c *CBR) Rate() units.Bandwidth {
	return units.Bandwidth(float64(c.cfg.MessageSize) / float64(c.cfg.Interval))
}

// Start begins the stream at a random phase within one interval.
func (c *CBR) Start() {
	c.tick = sim.Func(c.emit)
	rearm(c.cfg.Eng, units.Time(c.cfg.Rng.Int63n(int64(c.cfg.Interval))), c.tick)
}

func (c *CBR) emit() {
	c.cfg.Host.SubmitMessage(c.cfg.Flow, c.cfg.MessageSize)
	c.messages++
	rearm(c.cfg.Eng, c.cfg.Interval, c.tick)
}

// Messages returns how many messages this source has emitted.
func (c *CBR) Messages() uint64 { return c.messages }

// --- trace-driven video ---------------------------------------------------------

// LoadFrameTrace parses a video frame-size trace. The format follows the
// publicly available MPEG trace archives: '#'-prefixed comment lines are
// skipped and the last whitespace-separated field of every other line is a
// frame size in bytes (so both "SIZE" and "INDEX TYPE SIZE" layouts load).
func LoadFrameTrace(r io.Reader) ([]units.Size, error) {
	var frames []units.Size
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		size, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad frame size %q", line, fields[len(fields)-1])
		}
		if size <= 0 {
			return nil, fmt.Errorf("traffic: trace line %d: non-positive frame size %d", line, size)
		}
		frames = append(frames, units.Size(size))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: reading trace: %w", err)
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	return frames, nil
}

// VideoTraceConfig parameterises a trace-driven MPEG stream: the paper
// transmits "actual MPEG video sequences"; this source replays a recorded
// frame-size trace at the fixed frame cadence.
type VideoTraceConfig struct {
	Eng    *sim.Engine
	Host   *hostif.Host
	Rng    *xrand.Rand
	Flow   packet.FlowID
	Period units.Time
	// Frames is the per-frame size sequence; the stream loops over it.
	Frames []units.Size
}

// VideoTrace replays a recorded frame-size sequence.
type VideoTrace struct {
	cfg  VideoTraceConfig
	pos  int
	sent uint64
	tick sim.Handler // emit, bound at Start
}

// NewVideoTrace returns a trace-driven video source.
func NewVideoTrace(cfg VideoTraceConfig) *VideoTrace {
	if cfg.Period <= 0 {
		panic("traffic: video trace period must be positive")
	}
	if len(cfg.Frames) == 0 {
		panic("traffic: empty video trace")
	}
	return &VideoTrace{cfg: cfg}
}

// Name identifies the source.
func (v *VideoTrace) Name() string { return "video-trace" }

// MeanRate returns the trace's average bandwidth at the configured period,
// for admission control.
func (v *VideoTrace) MeanRate() units.Bandwidth {
	var sum units.Size
	for _, f := range v.cfg.Frames {
		sum += f
	}
	return units.Bandwidth(float64(sum) / float64(len(v.cfg.Frames)) / float64(v.cfg.Period))
}

// Start begins the replay at a random trace position and phase.
func (v *VideoTrace) Start() {
	v.pos = v.cfg.Rng.Intn(len(v.cfg.Frames))
	v.tick = sim.Func(v.emit)
	rearm(v.cfg.Eng, units.Time(v.cfg.Rng.Int63n(int64(v.cfg.Period))), v.tick)
}

func (v *VideoTrace) emit() {
	v.cfg.Host.SubmitMessage(v.cfg.Flow, v.cfg.Frames[v.pos])
	v.pos = (v.pos + 1) % len(v.cfg.Frames)
	v.sent++
	rearm(v.cfg.Eng, v.cfg.Period, v.tick)
}

// Frames returns how many frames this stream has emitted.
func (v *VideoTrace) Frames() uint64 { return v.sent }
