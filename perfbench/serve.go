package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agingpred"
	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
	"agingpred/internal/serve"
)

// serveSize is the serve workload's input size and load shape.
type serveSize struct {
	// Instances is the replayed fleet.Specs population; Duration the
	// simulated stream time of each instance. The streams are pre-generated
	// once and replayed in a cycle.
	Instances int
	Duration  time.Duration
	// Window is the closed-loop phase's requests in flight per connection.
	Window int
	// Ladder is the open loop's offered rates in increasing order. Latency
	// is reported at the first step, which the run alternates with Rounds
	// closed-loop phases so both sample the host alike. After every
	// climbEvery-th round, and the last, the run climbs the other steps,
	// from the lowest, until one misses the limit.
	Ladder []ladderStep
	Rounds int
}

// closedShare is the closed-loop phases' share of the serve run.
const closedShare = 0.25

// climbEvery is how many rounds the serve run plays between two climbs.
const climbEvery = 4

// ladderStep is one open-loop rate, requests per second over all
// connections, and its share of the run.
type ladderStep struct {
	Rate, Share float64
}

// defaultServeSize: 32 instances x 24 h is ~180 k distinct checkpoints (past
// the 4096-checkpoint re-summation cadence of a long stream). Latency is
// reported at 100 k/s, below the knee where the median open-loop latency
// starts to climb (200-400 k/s on a 2-vCPU host). The climb starts at 800 k/s,
// which that host always held, and goes up in steps of 100 k/s through the
// 1.0-1.4 M/s where the open loop started to miss the limit, so
// max_rate_per_s moves with the server's open-loop capacity. A capacity
// below 800 k/s reads as 100 k/s. The latency step has the largest share and
// twelve rounds spread over the run: that host switches between a quiet and
// a busy state every few seconds, which moves a round's p99 between about
// 1.1 and 3.5 ms.
var defaultServeSize = serveSize{
	Instances: 32,
	Duration:  24 * time.Hour,
	Window:    64,
	Ladder: []ladderStep{
		{100e3, 0.4},
		{800e3, 0.02}, {900e3, 0.02}, {1e6, 0.02}, {1.1e6, 0.02},
		{1.2e6, 0.02}, {1.3e6, 0.02}, {1.4e6, 0.02}, {1.6e6, 0.02},
	},
	Rounds: 12,
}

// latencyLimit is the p99 a ladder step must hold, with every reply correct
// and no growing backlog, to count toward max_rate_per_s. On a shared 2-vCPU
// VM the steps up to 800 k/s held p99 at 0.6-14.5 ms and the first step past
// capacity read 52-150 ms: the p99 stays a few ms until the backlog grows and
// then passes 50 ms within a step. A tighter limit would fail steps on the
// host's stalls, not on the server.
const latencyLimit = 50 * time.Millisecond

// refEpoch is the epoch of the reference model: a server started with
// Config.Model serves that model as epoch 1. Replies are verified against
// it, never against whichever epoch the first reply carries.
const refEpoch = 1

// goldenModel is the committed model artifact the serve workload serves,
// relative to the repository root.
const goldenModel = "internal/core/testdata/model_m5p_seed1.golden"

// drainTimeout bounds the wait for outstanding replies at a phase's end.
const drainTimeout = 10 * time.Second

// want is the reference prediction for one checkpoint.
type want struct {
	timeSec, ttfSec float64
	crash           bool
}

// ctrlFrame is the RESOLVE (followed by RESET) sent after a checkpoint that
// ends a stream segment; kind 0 means none.
type ctrlFrame struct {
	kind     serve.ResolveKind
	crashSec float64
}

// connStream is one connection's pre-generated input: its instances'
// checkpoint streams back to back, each run ended by RESOLVE + RESET, with
// the reference prediction of every checkpoint.
type connStream struct {
	cps  []monitor.Checkpoint
	want []want
	ctrl []ctrlFrame
}

// pregenerate replays the population with fleet.Replay and computes each
// checkpoint's reference prediction with a local core.Session, fresh after
// every RESET as the server's is. Instance i goes to connection i % conns.
// A crash ends the run with RESOLVE(crash) + RESET, the end of the simulated
// time with RESOLVE(censored) + RESET. A run that crashes before its first
// checkpoint sends nothing.
func pregenerate(m *core.Model, seed uint64, specs []fleet.InstanceSpec, d time.Duration, conns int) ([]*connStream, error) {
	ticks := int(d / monitor.DefaultInterval)
	out := make([]*connStream, conns)
	for c := range out {
		n := ticks * (len(specs)/conns + 1)
		out[c] = &connStream{
			cps:  make([]monitor.Checkpoint, 0, n),
			want: make([]want, 0, n),
			ctrl: make([]ctrlFrame, 0, n),
		}
	}
	var cp monitor.Checkpoint
	for i, spec := range specs {
		s := out[i%conns]
		rp := fleet.NewReplay(seed, spec)
		sess := m.NewSession()
		runLen := 0
		for t := 0; t < ticks; t++ {
			if rp.Step(&cp) {
				if runLen > 0 {
					s.ctrl[len(s.ctrl)-1] = ctrlFrame{kind: serve.ResolveCrash, crashSec: rp.TimeSec()}
				}
				rp.Restart()
				sess = m.NewSession()
				runLen = 0
				continue
			}
			p, err := sess.Observe(cp)
			if err != nil {
				return nil, fmt.Errorf("reference session: %w", err)
			}
			s.cps = append(s.cps, cp)
			s.want = append(s.want, want{timeSec: p.TimeSec, ttfSec: p.TTFSec, crash: p.CrashExpected})
			s.ctrl = append(s.ctrl, ctrlFrame{})
			runLen++
		}
		if runLen > 0 {
			s.ctrl[len(s.ctrl)-1] = ctrlFrame{kind: serve.ResolveCensored}
		}
	}
	for c, s := range out {
		if len(s.cps) == 0 {
			return nil, fmt.Errorf("connection %d has no checkpoints to send", c)
		}
	}
	return out, nil
}

// timedConn is the client's socket; with timing on it sums the wall time
// its reader spends inside Read (waiting for replies, plus the copy).
type timedConn struct {
	net.Conn
	timing bool
	waited time.Duration
}

func (t *timedConn) Read(p []byte) (int, error) {
	if !t.timing {
		return t.Conn.Read(p)
	}
	start := time.Now()
	n, err := t.Conn.Read(p)
	t.waited += time.Since(start)
	return n, err
}

// client is one load-generating connection on the binary transport, framed
// with serve.AppendFrame and serve.DecodeFrameBody. One writer and one
// reader goroutine drive it during a phase; the writer owns the send state,
// the reader the receive state.
type client struct {
	nc *timedConn
	bw *bufio.Writer
	br *bufio.Reader
	s  *connStream

	// writer state
	pos  int
	seq  uint32
	out  []byte
	f    serve.Frame
	sent int64

	// reader state; readerDone closes when the phase's reader returns
	readerDone chan struct{}
	rpos       int
	rseq       uint32
	hdr        [4]byte
	buf        []byte
	rf         serve.Frame
	recvd      atomic.Int64

	// open-loop samples of the current step, reused across steps: the
	// writer's due -> send lags, the reader's due -> reply latencies
	lag, lat []float64
}

func dialClient(addr string, s *connStream) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{nc: &timedConn{Conn: nc}, s: s, buf: make([]byte, 256)}
	c.bw = bufio.NewWriterSize(c.nc, 64<<10)
	c.br = bufio.NewReaderSize(c.nc, 64<<10)
	c.out, err = serve.AppendFrame(c.out[:0], &serve.Frame{Type: serve.FrameHello, Version: serve.ProtocolVersion})
	if err == nil {
		_, err = c.bw.Write(c.out)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		err = c.readFrame()
	}
	if err == nil && c.rf.Type != serve.FrameWelcome {
		err = fmt.Errorf("expected WELCOME, got %s (%s)", c.rf.Type, c.rf.Message)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	return c, nil
}

// send encodes and buffers the next checkpoint, and the RESOLVE + RESET that
// follow it when it ends a run.
func (c *client) send() error {
	k := c.pos
	c.seq++
	c.f = serve.Frame{Type: serve.FrameCheckpoint, Seq: c.seq, Vec: *c.s.cps[k].Vec()}
	var err error
	if c.out, err = serve.AppendFrame(c.out[:0], &c.f); err != nil {
		return err
	}
	if ctl := c.s.ctrl[k]; ctl.kind != 0 {
		c.f = serve.Frame{Type: serve.FrameResolve, Kind: ctl.kind, CrashTimeSec: ctl.crashSec}
		if c.out, err = serve.AppendFrame(c.out, &c.f); err != nil {
			return err
		}
		c.f = serve.Frame{Type: serve.FrameReset}
		if c.out, err = serve.AppendFrame(c.out, &c.f); err != nil {
			return err
		}
	}
	if _, err := c.bw.Write(c.out); err != nil {
		return err
	}
	c.pos = (k + 1) % len(c.s.cps)
	c.sent++
	return nil
}

// readFrame reads one frame into c.rf, checking its length bound and CRC.
func (c *client) readFrame() error {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(c.hdr[:]))
	if n < 1 || n > serve.DefaultMaxFrameBytes {
		return fmt.Errorf("reply frame length %d out of bounds", n)
	}
	if cap(c.buf) < n+4 {
		c.buf = make([]byte, n+4)
	}
	b := c.buf[:n+4]
	if _, err := io.ReadFull(c.br, b); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(b[:n]) != binary.BigEndian.Uint32(b[n:]) {
		return errors.New("reply frame checksum mismatch")
	}
	return serve.DecodeFrameBody(b[:n], &c.rf)
}

// recv reads the next reply and reports whether it matches the reference:
// sequence number, epoch, time, time to failure and crash flag, bit for bit.
func (c *client) recv() (bool, error) {
	if err := c.readFrame(); err != nil {
		return false, err
	}
	if c.rf.Type == serve.FrameError {
		return false, fmt.Errorf("server refused: %s: %s", c.rf.Code, c.rf.Message)
	}
	k := c.rpos
	c.rpos = (k + 1) % len(c.s.want)
	c.rseq++
	return matches(c.rf, c.rseq, c.s.want[k]), nil
}

func matches(f serve.Frame, seq uint32, w want) bool {
	return f.Type == serve.FramePredict && f.Seq == seq && f.Epoch == refEpoch &&
		math.Float64bits(f.TimeSec) == math.Float64bits(w.timeSec) &&
		math.Float64bits(f.TTFSec) == math.Float64bits(w.ttfSec) &&
		f.CrashExpected == w.crash
}

// phaseStats is one load phase over all connections.
type phaseStats struct {
	sent, received, mismatched int64
	wall                       time.Duration
	// waited sums, over the generator's goroutines, the time spent waiting:
	// the readers inside socket reads, the writers for window credit or for
	// the next due time. Measured only in traced phases.
	waited     time.Duration
	goroutines int
	// Open loop, over the sampled requests: the due -> reply latency's
	// median and p99, the due -> send lag's median, and the samples behind
	// them, in seconds.
	p50, p99, lag50 float64
	samples         int
	// tailLag is the open loop's median send lag over each connection's last
	// tenth of requests, the worst connection's: a backlog that grows shows
	// there.
	tailLag float64
}

// merge adds one connection's counts to p.
func (p *phaseStats) merge(o phaseStats) {
	p.sent += o.sent
	p.received += o.received
	p.mismatched += o.mismatched
	p.waited += o.waited
	p.goroutines += o.goroutines
	p.tailLag = math.Max(p.tailLag, o.tailLag)
}

// holds reports whether an open-loop step keeps the latency limit: every
// reply arrived and matched, the p99 stayed under the limit and the sender
// did not fall behind.
func (p phaseStats) holds() bool {
	return p.mismatched == 0 && p.received == p.sent &&
		p.p99 <= latencyLimit.Seconds() && p.tailLag <= latencyLimit.Seconds()
}

func (p phaseStats) perSec() float64 { return float64(p.received) / p.wall.Seconds() }

// busyShare is the generator's time outside waits, as a share of the
// host's GOMAXPROCS processors over the phase.
func (p phaseStats) busyShare() float64 {
	busy := time.Duration(p.goroutines)*p.wall - p.waited
	return busy.Seconds() / (p.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// phase runs one writer and one reader goroutine on the client. The writer
// returns once it has sent its last request; the reader then collects every
// outstanding reply, and is released from its final blocked read by a read
// deadline once the last one has arrived.
func (c *client) phase(traced bool, writer func() (time.Duration, error), onReply func(i int64, ok bool)) (phaseStats, error) {
	c.sent = 0
	c.recvd.Store(0)
	c.nc.timing, c.nc.waited = traced, 0
	var (
		st      phaseStats
		readErr error
		wg      sync.WaitGroup
	)
	c.readerDone = make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(c.readerDone)
		for {
			ok, err := c.recv()
			if err != nil {
				readErr = err
				return
			}
			i := c.recvd.Add(1) - 1
			if !ok {
				st.mismatched++
			}
			onReply(i, ok)
		}
	}()
	writeWait, err := writer()
	if err == nil {
		err = c.bw.Flush()
	}
	until := time.Now().Add(drainTimeout)
drain:
	for err == nil && c.recvd.Load() < c.sent && time.Now().Before(until) {
		select {
		case <-c.readerDone:
			break drain
		case <-time.After(100 * time.Microsecond):
		}
	}
	c.nc.SetReadDeadline(time.Now())
	wg.Wait()
	c.nc.SetReadDeadline(time.Time{})
	if !errors.Is(readErr, os.ErrDeadlineExceeded) {
		return st, fmt.Errorf("reading replies: %w", readErr)
	}
	if err != nil {
		return st, err
	}
	st.sent, st.received = c.sent, c.recvd.Load()
	st.waited = c.nc.waited
	if traced {
		st.waited += writeWait
		st.goroutines = 2
	}
	return st, nil
}

// serveRig is a running server with the workload's connections.
type serveRig struct {
	srv     *serve.Server
	model   *core.Model
	streams []*connStream
	clients []*client
	// the open loop's samples over all connections, reused across steps
	lag, lat []float64
}

// startRig starts serve.Start with its default configuration on loopback,
// pre-generates the streams and dials one connection per processor.
func startRig(m *core.Model, seed uint64, specs []fleet.InstanceSpec, d time.Duration) (*serveRig, error) {
	conns := runtime.GOMAXPROCS(0)
	if conns > len(specs) {
		conns = len(specs)
	}
	streams, err := pregenerate(m, seed, specs, d, conns)
	if err != nil {
		return nil, err
	}
	srv, err := serve.Start(serve.Config{Model: m, TCPAddr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	g := &serveRig{srv: srv, model: m, streams: streams}
	for _, s := range streams {
		c, err := dialClient(srv.TCPAddr(), s)
		if err != nil {
			g.close()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	return g, nil
}

func (g *serveRig) close() error {
	for _, c := range g.clients {
		c.out, _ = serve.AppendFrame(c.out[:0], &serve.Frame{Type: serve.FrameClose})
		c.bw.Write(c.out)
		c.bw.Flush()
		c.nc.Close()
	}
	return g.srv.Close()
}

// each runs fn on every client concurrently and merges the results.
func (g *serveRig) each(fn func(i int, c *client) (phaseStats, error)) (phaseStats, error) {
	var (
		mu    sync.Mutex
		total phaseStats
		first error
		wg    sync.WaitGroup
	)
	start := time.Now()
	for i, c := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := fn(i, c)
			mu.Lock()
			defer mu.Unlock()
			total.merge(st)
			if err != nil && first == nil {
				first = err
			}
		}()
	}
	wg.Wait()
	total.wall = time.Since(start)
	return total, first
}

// closedLoop keeps window requests in flight on every connection until the
// deadline: a reply returns its credit, and the writer flushes whenever it
// has to wait for one.
func (g *serveRig) closedLoop(window int, deadline time.Time, traced bool) (phaseStats, error) {
	return g.each(func(_ int, c *client) (phaseStats, error) {
		credits := make(chan struct{}, window) // one token per request in flight
		for i := 0; i < window; i++ {
			credits <- struct{}{}
		}
		writer := func() (time.Duration, error) {
			var waited time.Duration
			for n := 0; ; n++ {
				if n%64 == 0 && !time.Now().Before(deadline) {
					return waited, nil
				}
				select {
				case <-credits:
				default:
					if err := c.bw.Flush(); err != nil {
						return waited, err
					}
					start := time.Now()
					select {
					case <-credits:
					case <-c.readerDone:
						return waited, errors.New("reader stopped")
					}
					if traced {
						waited += time.Since(start)
					}
				}
				if err := c.send(); err != nil {
					return waited, err
				}
			}
		}
		return c.phase(traced, writer, func(int64, bool) { credits <- struct{}{} })
	})
}

// maxSamples bounds the samples one connection records in an open-loop
// step: a step with more requests records every stride-th one, so the
// generator's memory does not grow with the offered rate.
const maxSamples = 1 << 17

// openLoop offers rate requests per second over all connections for d, each
// connection on its own fixed schedule. A request is timed from when it was
// due, so a stalled server or a late sender shows in its latency.
func (g *serveRig) openLoop(rate float64, d time.Duration, traced bool) (phaseStats, error) {
	conns := len(g.clients)
	period := time.Duration(float64(conns) / rate * float64(time.Second))
	n := int(d / period)
	stride := (n + maxSamples - 1) / maxSamples
	st, err := g.each(func(ci int, c *client) (phaseStats, error) {
		offset := period * time.Duration(ci) / time.Duration(conns)
		due := func(k int) time.Duration { return offset + time.Duration(k)*period }
		c.lag, c.lat = c.lag[:0], c.lat[:0]
		t0 := time.Now()
		writer := func() (time.Duration, error) {
			var waited time.Duration
			for k := 0; k < n; k++ {
				now := time.Since(t0)
				if now < due(k) {
					if err := c.bw.Flush(); err != nil {
						return waited, err
					}
					time.Sleep(due(k) - now)
					after := time.Since(t0)
					waited += after - now
					now = after
				}
				if k%stride == 0 {
					c.lag = append(c.lag, (now - due(k)).Seconds())
				}
				if err := c.send(); err != nil {
					return waited, err
				}
			}
			return waited, nil
		}
		st, err := c.phase(traced, writer, func(i int64, _ bool) {
			if k := int(i); k < n && k%stride == 0 {
				c.lat = append(c.lat, (time.Since(t0) - due(k)).Seconds())
			}
		})
		if err == nil {
			st.tailLag = median(c.lag[len(c.lag)*9/10:])
		}
		return st, err
	})
	if err != nil {
		return st, err
	}
	g.lag, g.lat = g.lag[:0], g.lat[:0]
	for _, c := range g.clients {
		g.lag = append(g.lag, c.lag...)
		g.lat = append(g.lat, c.lat...)
	}
	st.p50, st.p99 = quantile(g.lat, 0.5), quantile(g.lat, 0.99)
	st.lag50 = quantile(g.lag, 0.5)
	st.samples = len(g.lat)
	return st, nil
}

// account adds a phase's requests to the run's attempted and failed counts:
// a reply that differs from the reference, or never arrives, is a failure.
func account(r *report, st phaseStats) {
	r.attempted += st.sent
	r.failed += st.mismatched + st.sent - st.received
}

// loadGolden decodes the committed model artifact.
func loadGolden() (*core.Model, error) {
	m, err := agingpred.LoadModel(goldenModel)
	if err != nil {
		return nil, fmt.Errorf("loading %s (run from the repository root): %w", goldenModel, err)
	}
	return m, nil
}

// runServe is the serve workload: closed-loop phases for throughput,
// alternating with open-loop phases at the ladder's first rate for latency,
// and after every second round a climb of the rest of the ladder for the
// highest rate that holds the limit.
func runServe(size serveSize, seed uint64, seconds float64, trace bool, r *report) error {
	var (
		rig    *serveRig
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			// One rig at a time, the last one's streams collected, so that
			// peak_rss_mb holds a single set of streams.
			if err := rig.close(); err != nil {
				return err
			}
			rig = nil
			runtime.GC()
		}
		start := time.Now()
		m, err := loadGolden()
		if err != nil {
			return err
		}
		if rig, err = startRig(m, seed, fleet.Specs(seed, size.Instances), size.Duration); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rig.close()
	runtime.GC() // start every run's timing from the same collected heap
	if trace {
		return traceServe(rig, size, seed, seconds, r)
	}

	b := newBudget(seconds)
	var closedPPS, p50s, p99s, maxRates []float64
	samples := 0
	for i := 0; i < size.Rounds; i++ {
		closed, err := rig.closedLoop(size.Window, b.until(closedShare/float64(size.Rounds)), false)
		if err != nil {
			return err
		}
		account(r, closed)
		closedPPS = append(closedPPS, closed.perSec())
		open, err := rig.openLoop(size.Ladder[0].Rate, b.share(size.Ladder[0].Share/float64(size.Rounds)), false)
		if err != nil {
			return err
		}
		account(r, open)
		p50s = append(p50s, open.p50)
		p99s = append(p99s, open.p99)
		samples += open.samples
		if i%climbEvery == climbEvery-1 || i == size.Rounds-1 {
			rate, err := rig.climb(size.Ladder, open, b, r)
			if err != nil {
				return err
			}
			maxRates = append(maxRates, rate)
		}
	}
	r.note("rounds: closed loop %s /s; at %.0f/s p50 %s us, p99 %s us",
		list(closedPPS, 1), size.Ladder[0].Rate, list(p50s, 1e6), list(p99s, 1e6))
	r.set("setup_s", "s", median(setups))
	r.set("predictions_per_s", "1/s", median(closedPPS))
	r.set("latency_p50_us", "us", median(p50s)*1e6)
	r.set("latency_p99_us", "us", median(p99s)*1e6)
	r.set("max_rate_per_s", "1/s", median(maxRates))
	r.samples["setup_s"] = len(setups)
	r.samples["predictions_per_s"] = len(closedPPS)
	r.samples["latency_p50_us"] = samples
	r.samples["latency_p99_us"] = samples
	r.samples["max_rate_per_s"] = len(maxRates)
	r.note("%d instances x %v simulated over %d connections, window %d, %d checkpoints per cycle",
		size.Instances, size.Duration, len(rig.clients), size.Window, rig.checkpoints())
	return nil
}

// list formats xs scaled by k, rounded, in run order.
func list(xs []float64, k float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.0f", x*k)
	}
	return strings.Join(out, " ")
}

// climb offers the ladder's rates above the first in turn, from the lowest,
// and returns the achieved rate of the highest step that holds the limit
// with every step below it. first is a phase just run at the first rate; if
// it misses the limit, so does the climb, at 0.
func (g *serveRig) climb(ladder []ladderStep, first phaseStats, b budget, r *report) (float64, error) {
	if !first.holds() {
		r.note("climb: %.0f/s misses the limit (p99 %.0f us)", ladder[0].Rate, first.p99*1e6)
		return 0, nil
	}
	best, held := first.perSec(), ladder[0].Rate
	for _, step := range ladder[1:] {
		st, err := g.openLoop(step.Rate, b.share(step.Share), false)
		if err != nil {
			return 0, err
		}
		account(r, st)
		if !st.holds() {
			r.note("climb: holds %.0f/s; %.0f/s misses the limit: p99 %.0f us over %d sampled replies, final send lag %.0f us",
				held, step.Rate, st.p99*1e6, st.samples, st.tailLag*1e6)
			return best, nil
		}
		best, held = st.perSec(), step.Rate
	}
	r.note("climb: holds every step up to %.0f/s", held)
	return best, nil
}

func (g *serveRig) checkpoints() int {
	n := 0
	for _, s := range g.streams {
		n += len(s.cps)
	}
	return n
}
