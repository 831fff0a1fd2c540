// Scheduler: the servicer of every Session. A goroutine and a pacing timer
// per session drown in scheduler and timer churn once a host carries
// thousands of mostly-small paced sims — the dominant serving workload in
// the paper's operating space, where a real-time session ticks at just
// 1 kHz and each tick costs microseconds. Compass scales the other way: a
// fixed worker set batching many cores' worth of work per thread. The
// Scheduler brings that shape to sessions:
//
//   - a hashed timing wheel holds every paced session's next wake time;
//   - a clock goroutine advances the wheel once per wheel tick and moves
//     due sessions onto a ready queue;
//   - a fixed worker pool (default GOMAXPROCS) services the ready queue,
//     stepping each due session in a batch — all ticks due now, cut off by
//     the 2 ms service budget — before parking it back on the wheel;
//   - sessions paced finer than the 20 ms pacing quantum are woken once
//     per quantum and step the whole quantum's ticks in one dispatch, so a
//     1 kHz session costs 50 wakeups/s instead of 1000.
//
// A session is serviced by exactly one goroutine at a time (the state
// machine below guarantees it), so the engine remains single-threaded and
// commands land only between ticks. No session can hold a worker hostage:
// a dispatch that exhausts its budget — free-running, behind schedule, or
// kept busy by a stream of commands — requeues at the tail.
//
// Admission control bounds the load a scheduler accepts: a session count
// cap and an aggregate paced ticks/sec cap. Both reject with ErrSaturated,
// which the serving layer maps to 429 + Retry-After.
package runtime

import (
	"errors"
	"io"
	"math"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler sentinels.
var (
	// ErrSaturated reports an admission-control rejection: the scheduler is
	// at its session cap or the requested pacing would exceed the aggregate
	// ticks/sec budget. Callers should shed load or retry later.
	ErrSaturated = errors.New("runtime: scheduler saturated")
	// ErrSchedulerClosed reports a session registration on a closed
	// scheduler.
	ErrSchedulerClosed = errors.New("runtime: scheduler closed")
)

// Session scheduling states (Session.schedState). The invariant the state
// machine maintains is that a session occupies at most one ready-queue slot
// and is serviced by at most one worker at a time:
//
//	Idle ──wake──▶ Queued ──worker──▶ Running ──done──▶ Idle
//	                                     │ wake
//	                                     ▼
//	                                RunningWake ──done──▶ Queued
//
// A wake during Running records itself as RunningWake instead of enqueuing,
// and the worker requeues exactly once when it finishes. Dead is terminal.
const (
	schedIdle int32 = iota
	schedQueued
	schedRunning
	schedRunningWake
	schedDead
)

// SchedulerConfig sizes a Scheduler. The zero value of every field selects
// a sensible default.
type SchedulerConfig struct {
	// Workers is the service pool size (default GOMAXPROCS).
	Workers int
	// MaxSessions caps concurrently registered sessions (default 4096).
	// It also sizes the ready queue, so enqueues never block.
	MaxSessions int
	// MaxTicksPerSec caps the sum of paced session rates admitted
	// (0 = unlimited). Free-running sessions count 0 against it.
	MaxTicksPerSec float64
}

func (c *SchedulerConfig) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = stdruntime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
}

// Scheduling constants.
const (
	// wheelTick is the timing-wheel granularity — the pacing jitter floor.
	wheelTick = time.Millisecond
	// wheelSlots is the wheel size, a power of two so slot hashing is a
	// mask. The horizon is wheelSlots×wheelTick; later deadlines simply
	// survive extra laps.
	wheelSlots = 512
	wheelMask  = wheelSlots - 1
	// pacingQuantum batches paced sessions whose period p is finer than it
	// into one wakeup every ⌊quantum/p⌋ periods, stepping that many ticks
	// per dispatch. Pacing stays exact in the mean; burst jitter is bounded
	// by the quantum. The quantum only delays ticks — commands wake a
	// parked session immediately — so it trades output burstiness for
	// per-dispatch overhead, which is what bounds how many real-time
	// sessions one host sustains (at 1000 Hz: 20 ticks per dispatch
	// instead of the wheel-tick floor's 1).
	pacingQuantum = 20 * time.Millisecond
	// serviceBudget bounds worker time per dispatch to itself plus at most
	// one tick: a session with more due work is cut off and requeued at
	// the tail.
	serviceBudget = 2 * time.Millisecond
	// freeRunTicks bounds the ticks of one free-running stepping pass.
	freeRunTicks = 256
)

// wheelEntry is one parked session with its absolute wake time. The slot
// index is a hash (wake/wheelTick mod slots), so entries in a slot are
// re-checked against their deadline at fire time; a far-future entry just
// stays for a later lap.
type wheelEntry struct {
	s  *Session
	at time.Time
}

// wheelSlot is one bucket of the hashed timing wheel.
type wheelSlot struct {
	mu      sync.Mutex
	entries []wheelEntry
}

// Histogram bucket boundaries for scheduler metrics. Both histograms are
// rendered cumulatively (Prometheus le-style) by Metrics.
const (
	nBatchBuckets = 9
	nLatBuckets   = 10
)

var (
	batchBuckets   = [nBatchBuckets]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	latencyBuckets = [nLatBuckets]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1}
)

// Scheduler steps batches of due sessions from a hashed timing wheel using
// a fixed worker pool. Construct with NewScheduler, hand to sessions via
// WithScheduler, release with Close. All methods are safe for concurrent
// use.
type Scheduler struct {
	cfg SchedulerConfig

	ready chan *Session // capacity MaxSessions: at most one slot per session
	stop  chan struct{}
	wg    sync.WaitGroup

	wheel    [wheelSlots]wheelSlot
	lastSlot atomic.Int64 // last absolute wheel slot the clock processed

	mu        sync.Mutex // guards sessions, pacedRate, closed
	sessions  map[*Session]struct{}
	pacedRate float64 // sum of admitted paced rates (Hz)
	closed    bool

	dispatches   atomic.Uint64
	ticksStepped atomic.Uint64
	rejSessions  atomic.Uint64 // admission rejections: session cap
	rejRate      atomic.Uint64 // admission rejections: aggregate rate cap
	batchHist    [nBatchBuckets + 1]atomic.Uint64
	latHist      [nLatBuckets + 1]atomic.Uint64
}

// NewScheduler starts a scheduler: cfg.Workers service goroutines plus one
// wheel clock. The caller owns it and must Close it (after closing or
// abandoning its sessions; Close also closes any still registered).
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg.applyDefaults()
	d := &Scheduler{
		cfg:      cfg,
		ready:    make(chan *Session, cfg.MaxSessions),
		stop:     make(chan struct{}),
		sessions: make(map[*Session]struct{}),
	}
	d.lastSlot.Store(d.slotOf(time.Now()))
	d.wg.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go d.worker()
	}
	go d.clock()
	return d
}

// slotOf maps a wall time to an absolute wheel-slot number.
func (d *Scheduler) slotOf(t time.Time) int64 {
	return t.UnixNano() / int64(wheelTick)
}

// register admits a session (called from New, before the session is
// reachable by anything else).
func (d *Scheduler) register(s *Session) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrSchedulerClosed
	}
	if len(d.sessions) >= d.cfg.MaxSessions {
		d.rejSessions.Add(1)
		return ErrSaturated
	}
	if d.cfg.MaxTicksPerSec > 0 && d.pacedRate+s.rateHz > d.cfg.MaxTicksPerSec {
		d.rejRate.Add(1)
		return ErrSaturated
	}
	d.sessions[s] = struct{}{}
	d.pacedRate += s.rateHz
	return nil
}

// unregister releases a dead session's admission slot. rate is the paced
// rate the session held at shutdown.
func (d *Scheduler) unregister(s *Session, rate float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.sessions[s]; !ok {
		return
	}
	delete(d.sessions, s)
	d.pacedRate -= rate
	if d.pacedRate < 0 {
		d.pacedRate = 0
	}
}

// reserveRate re-admits a session at a new paced rate, atomically swapping
// its contribution to the aggregate budget.
func (d *Scheduler) reserveRate(old, new float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.MaxTicksPerSec > 0 && d.pacedRate-old+new > d.cfg.MaxTicksPerSec {
		d.rejRate.Add(1)
		return ErrSaturated
	}
	d.pacedRate += new - old
	if d.pacedRate < 0 {
		d.pacedRate = 0
	}
	return nil
}

// schedule parks a session on the wheel until at. Deadlines at or before
// the clock's cursor go straight into the next slot so they fire on the
// next wheel tick rather than waiting out a full lap.
func (d *Scheduler) schedule(s *Session, at time.Time) {
	sn := d.slotOf(at)
	if last := d.lastSlot.Load(); sn <= last {
		sn = last + 1
	}
	slot := &d.wheel[sn&wheelMask]
	slot.mu.Lock()
	slot.entries = append(slot.entries, wheelEntry{s: s, at: at})
	slot.mu.Unlock()
}

// enqueue puts a Queued session on the ready queue. The queue's capacity
// equals the session cap and the state machine admits at most one entry
// per session, so the send can never block; the default arm documents
// (and survives) a violation of that invariant rather than deadlocking.
func (d *Scheduler) enqueue(s *Session) {
	select {
	case d.ready <- s:
	default:
		// Unreachable by construction; fall back to dropping to Idle so a
		// bug degrades to a stalled session instead of a stuck worker.
		s.schedState.Store(schedIdle)
	}
}

// clock advances the timing wheel: every wheelTick it sweeps the slots the
// cursor passed, collects entries whose deadline has arrived, and wakes
// them (outside the slot locks).
func (d *Scheduler) clock() {
	defer d.wg.Done()
	ticker := time.NewTicker(wheelTick)
	defer ticker.Stop()
	var due []*Session // reused sweep scratch, owned by this goroutine
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			due = d.advance(time.Now(), due[:0])
			for _, s := range due {
				s.wake()
			}
		}
	}
}

// advance sweeps the wheel cursor up to now and returns the due sessions
// appended to buf. Sweeping is capped at one full lap: the slot index is a
// hash of the deadline, so one pass over every slot covers any backlog.
func (d *Scheduler) advance(now time.Time, buf []*Session) []*Session {
	last := d.lastSlot.Load()
	cur := d.slotOf(now)
	if cur <= last {
		return buf
	}
	n := cur - last
	if n > int64(len(d.wheel)) {
		n = int64(len(d.wheel))
	}
	// Entries within one wheel tick of now count as due: the cursor is
	// passing their slot right now, so keeping them would strand them for
	// a full lap. Anything beyond the cutoff in a swept slot is
	// lap-aliased — its deadline is at least a whole lap out — and is
	// correctly kept for a later sweep. (service re-derives dueness from
	// the wall clock, so an early wake never steps an early tick.)
	cutoff := now.Add(wheelTick)
	for i := int64(1); i <= n; i++ {
		slot := &d.wheel[(last+i)&wheelMask]
		slot.mu.Lock()
		kept := slot.entries[:0]
		for _, e := range slot.entries {
			if e.at.After(cutoff) {
				kept = append(kept, e)
			} else {
				buf = append(buf, e.s)
			}
		}
		slot.entries = kept
		slot.mu.Unlock()
	}
	d.lastSlot.Store(cur)
	return buf
}

// worker services ready sessions until the scheduler stops.
func (d *Scheduler) worker() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case s := <-d.ready:
			d.dispatch(s)
		}
	}
}

// dispatch services one session and resolves its next state: Idle (wait
// for a wake), requeued (more work than the budget allowed, or a wake
// arrived mid-service), parked on the wheel (paced, next deadline in the
// future), or Dead (closed: unregister and release waiters).
func (d *Scheduler) dispatch(s *Session) {
	s.schedState.Store(schedRunning)
	start := time.Now()
	disp := s.service(start)
	elapsed := time.Since(start).Seconds()

	d.dispatches.Add(1)
	d.ticksStepped.Add(disp.ticks)
	d.batchHist[bucketOf(batchBuckets[:], float64(disp.ticks))].Add(1)
	d.latHist[bucketOf(latencyBuckets[:], elapsed)].Add(1)

	if disp.kind == dispDead {
		s.schedState.Store(schedDead)
		d.unregister(s, s.rateHz)
		// Dead is terminal and reached by exactly one dispatch (workers
		// hold exclusive Running ownership): done's only closer.
		close(s.done)
		return
	}
	for {
		if s.schedState.CompareAndSwap(schedRunning, schedIdle) {
			switch disp.kind {
			case dispAgain:
				// More due work than one budget allowed: take the queue
				// tail so other ready sessions run first.
				s.wake()
			case dispAt:
				d.schedule(s, disp.at)
			}
			return
		}
		if s.schedState.CompareAndSwap(schedRunningWake, schedQueued) {
			// A command, input, or wheel wake landed mid-service; requeue
			// exactly once. A pending dispAt deadline is subsumed: service
			// re-parks on the wheel after handling whatever woke us.
			d.enqueue(s)
			return
		}
	}
}

// bucketOf returns the index of the first bucket with bound >= v, or
// len(bounds) for the overflow bucket.
func bucketOf(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// Close shuts the scheduler down: it closes every still-registered session
// (through the normal command path, so waiters and subscribers see
// ErrClosed exactly as with a direct Close), then stops the workers and
// the clock. Closing twice is a no-op.
func (d *Scheduler) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.closed = true
	live := make([]*Session, 0, len(d.sessions))
	for s := range d.sessions {
		live = append(live, s)
	}
	d.mu.Unlock()
	// Workers are still running here — they execute the close commands.
	for _, s := range live {
		s.Close() //nolint:errcheck // close-on-close is already ErrClosed
	}
	close(d.stop)
	d.wg.Wait()
}

// HistBucket is one cumulative histogram bucket: Count observations with
// value <= Le (Le = +Inf on the last bucket).
type HistBucket struct {
	Le    float64
	Count uint64
}

// SchedulerMetrics is a point-in-time observation of a Scheduler.
type SchedulerMetrics struct {
	// Sessions / MaxSessions and PacedTicksPerSec / MaxTicksPerSec are the
	// admission-control occupancy (MaxTicksPerSec 0 = unlimited).
	Sessions         int
	MaxSessions      int
	PacedTicksPerSec float64
	MaxTicksPerSec   float64
	// Workers is the pool size; ReadyDepth the instantaneous due-queue
	// backlog.
	Workers    int
	ReadyDepth int
	// Dispatches and TicksStepped are cumulative totals.
	Dispatches   uint64
	TicksStepped uint64
	// RejectedSessions / RejectedRate count admission rejections by cause.
	RejectedSessions uint64
	RejectedRate     uint64
	// BatchSize (ticks per dispatch) and StepLatency (seconds per
	// dispatch) are cumulative le-histograms; the last bucket is +Inf.
	BatchSize   []HistBucket
	StepLatency []HistBucket
}

// Metrics snapshots the scheduler's counters. Histograms are cumulative
// (each bucket counts observations at or below its bound).
func (d *Scheduler) Metrics() SchedulerMetrics {
	d.mu.Lock()
	m := SchedulerMetrics{
		Sessions:         len(d.sessions),
		MaxSessions:      d.cfg.MaxSessions,
		PacedTicksPerSec: d.pacedRate,
		MaxTicksPerSec:   d.cfg.MaxTicksPerSec,
	}
	d.mu.Unlock()
	m.Workers = d.cfg.Workers
	m.ReadyDepth = len(d.ready)
	m.Dispatches = d.dispatches.Load()
	m.TicksStepped = d.ticksStepped.Load()
	m.RejectedSessions = d.rejSessions.Load()
	m.RejectedRate = d.rejRate.Load()
	m.BatchSize = cumulative(batchBuckets[:], d.batchHist[:])
	m.StepLatency = cumulative(latencyBuckets[:], d.latHist[:])
	return m
}

// cumulative renders per-bucket atomic counts as a le-style cumulative
// histogram with a trailing +Inf bucket.
func cumulative(bounds []float64, counts []atomic.Uint64) []HistBucket {
	out := make([]HistBucket, len(bounds)+1)
	var sum uint64
	for i := range bounds {
		sum += counts[i].Load()
		out[i] = HistBucket{Le: bounds[i], Count: sum}
	}
	sum += counts[len(bounds)].Load()
	out[len(bounds)] = HistBucket{Le: math.Inf(1), Count: sum}
	return out
}

// ---- Session side of the scheduler protocol ----

// disposition kinds returned by Session.service.
const (
	dispIdle  = iota // no runnable work: wait for a wake
	dispAgain        // budget cut-off: requeue at the ready-queue tail
	dispAt           // paced: park on the wheel until .at
	dispDead         // closed: terminal
)

// disposition is the outcome of one service pass.
type disposition struct {
	kind  int
	at    time.Time
	ticks uint64
}

// wake transitions a session toward the ready queue. It is safe to call
// from any goroutine, any number of times: the state machine collapses
// concurrent wakes into at most one queue entry.
func (s *Session) wake() {
	for {
		switch st := s.schedState.Load(); st {
		case schedIdle:
			if s.schedState.CompareAndSwap(schedIdle, schedQueued) {
				s.sched.enqueue(s)
				return
			}
		case schedRunning:
			if s.schedState.CompareAndSwap(schedRunning, schedRunningWake) {
				return // the servicing worker requeues on completion
			}
		case schedQueued, schedRunningWake, schedDead:
			return
		}
	}
}

// hasPending reports queued commands — the "someone is waiting between
// ticks" signal the stepping loops poll.
func (s *Session) hasPending() bool { return len(s.cmds) > 0 }

// drainPending executes the commands queued when it starts. Stopping there
// keeps a client that never pauses from pinning the worker; one that
// arrives meanwhile found the session Running, so its wake requeues the
// session (and the stepping loops poll hasPending between ticks).
func (s *Session) drainPending() {
	// Only the worker holding Running receives from cmds, so n receives of
	// the n queued commands cannot block.
	for n := len(s.cmds); n > 0; n-- {
		(<-s.cmds)()
	}
}

// shutdown retires a closing session: fail waiters with ErrClosed, release
// subscribers, and close the engine if it is an io.Closer (compass stops its
// worker pool and stays usable).
func (s *Session) shutdown() {
	s.finishRun(ErrClosed)
	for _, sub := range s.subs {
		//lint:ignore tnlint/chanflow both close sites of sub.ch run on the session's servicer (workers hold exclusive Running state; do routes cancel through it) and are exclusive: cancel closes only a registered sub, shutdown only the ones still registered
		close(sub.ch)
	}
	s.subs = nil
	if c, ok := s.eng.(io.Closer); ok {
		c.Close() //nolint:errcheck // releasing an engine has nothing to report
	}
}

// service is one scheduler dispatch: drain pending commands,
// then step whatever ticks are runnable, and report how the session should
// be re-scheduled. It runs with exclusive ownership of the session (the
// worker holds Running state), preserving the engine's single-threaded
// contract and the commands-between-ticks guarantee. The budget is checked
// after every tick and before every stepping pass, so a dispatch overruns
// it by at most one tick and one drain of already-queued commands.
func (s *Session) service(start time.Time) disposition {
	budgetEnd := start.Add(serviceBudget)
	var stepped uint64
	for {
		s.drainPending()
		if s.closing {
			s.shutdown()
			return disposition{kind: dispDead, ticks: stepped}
		}
		if !s.running {
			return disposition{kind: dispIdle, ticks: stepped}
		}
		if s.eng.Tick() >= s.target {
			s.finishRun(nil)
			continue // commands may have queued meanwhile: re-evaluate
		}
		if time.Now().After(budgetEnd) {
			// Ticks cost more than the budget or commands keep arriving:
			// take the queue tail so other ready sessions run first.
			return disposition{kind: dispAgain, ticks: stepped}
		}
		if s.rateHz <= 0 {
			// Free-run: step a bounded pass, then yield the worker so paced
			// sessions stay on schedule.
			for i := 0; i < freeRunTicks && s.eng.Tick() < s.target && !s.hasPending(); i++ {
				s.step()
				stepped++
				if time.Now().After(budgetEnd) {
					break
				}
			}
			if s.hasPending() || s.eng.Tick() >= s.target {
				continue // commands between ticks / completion, then decide
			}
			return disposition{kind: dispAgain, ticks: stepped}
		}
		// Paced: step every tick due by the wall clock, advancing the
		// deadline one period per tick; one clock read per tick serves both
		// the deadline and the budget.
		period := time.Duration(float64(time.Second) / s.rateHz)
		now := time.Now()
		if s.deadline.IsZero() {
			s.deadline = now
		}
		for s.eng.Tick() < s.target && !s.deadline.After(now) && !s.hasPending() {
			s.step()
			stepped++
			s.deadline = s.deadline.Add(period)
			if now = time.Now(); now.After(budgetEnd) {
				break
			}
		}
		if s.hasPending() || s.eng.Tick() >= s.target {
			continue
		}
		if now.Sub(s.deadline) > time.Second {
			// Fell more than a second behind (host stall, rate beyond the
			// host's reach): resynchronize instead of sprinting.
			s.deadline = now
		}
		if !s.deadline.After(now) {
			// Still behind after the budget: requeue at the tail so other
			// due sessions get a worker first (fairness under overload).
			return disposition{kind: dispAgain, ticks: stepped}
		}
		// Ahead of schedule: park until the next deadline — batched into
		// one wakeup per pacing quantum when the period is finer.
		at := s.deadline
		if k := int(pacingQuantum / period); k > 1 {
			at = at.Add(time.Duration(k-1) * period)
		}
		return disposition{kind: dispAt, at: at, ticks: stepped}
	}
}
