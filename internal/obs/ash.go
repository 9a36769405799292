package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The Active Session History (ASH): a background goroutine that, at a fixed
// rate, reads every registered session's published state (all atomic loads —
// see SessionState) and appends one sample per session to a bounded ring.
// Sampling is statistical by design: a wait shorter than one sample period
// may be missed, a long wait shows up in proportion to its duration, and
// summing samples per (event, time bucket) reconstructs where wall-clock
// time went without per-event tracing cost on the hot path.

// DefaultASHRate is the sampler frequency in Hz when none is configured.
const DefaultASHRate = 100

// DefaultASHCapacity bounds the sample ring: at the default rate with eight
// live sessions this holds roughly forty seconds of history.
const DefaultASHCapacity = 32768

// maxASHRate clamps SetRate so a typo cannot turn the sampler into a
// busy loop.
const maxASHRate = 10000

var mASHSamples = NewCounter("ash.samples", "Session state samples recorded by the ASH sampler")

// ASHSample is one session's state at one sampler tick.
type ASHSample struct {
	TimeNS      int64  `json:"time_ns"` // wall clock, UnixNano
	Session     int64  `json:"session"`
	Proc        string `json:"proc"`
	Txn         int64  `json:"txn"`
	State       string `json:"state"` // "cpu", "waiting", or "idle"
	Event       string `json:"event,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	TraceID     string `json:"trace_id,omitempty"`
	WaitNS      int64  `json:"wait_ns,omitempty"` // time in the current wait so far
}

// ASHSampler owns the sample ring and the sampling goroutine. It is created
// enabled at the default rate and starts lazily with the first registered
// session; SetEnabled(false) is the kill switch (the goroutine keeps
// ticking but records nothing, so re-enabling needs no restart).
type ASHSampler struct {
	enabled atomic.Bool
	rate    atomic.Int64 // Hz

	mu     sync.Mutex
	ring   []ASHSample
	next   int
	filled bool

	once sync.Once
}

var defaultASH = newASHSampler(DefaultASHCapacity)

// ASH returns the process-wide Active Session History sampler.
func ASH() *ASHSampler { return defaultASH }

func newASHSampler(capacity int) *ASHSampler {
	if capacity <= 0 {
		capacity = DefaultASHCapacity
	}
	a := &ASHSampler{ring: make([]ASHSample, capacity)}
	a.enabled.Store(true)
	a.rate.Store(DefaultASHRate)
	return a
}

// SetEnabled toggles sampling — the kill switch (ldvdb -ash-hz 0).
// Disabled, a tick is one atomic load.
func (a *ASHSampler) SetEnabled(on bool) { a.enabled.Store(on) }

// Enabled reports whether the sampler is recording.
func (a *ASHSampler) Enabled() bool { return a.enabled.Load() }

// SetRate sets the sampling frequency in Hz (clamped to [1, 10000]). The
// new rate takes effect on the next tick.
func (a *ASHSampler) SetRate(hz int) {
	if hz < 1 {
		hz = 1
	}
	if hz > maxASHRate {
		hz = maxASHRate
	}
	a.rate.Store(int64(hz))
}

// Rate returns the sampling frequency in Hz.
func (a *ASHSampler) Rate() int { return int(a.rate.Load()) }

// start launches the sampler goroutine once per process. The goroutine
// never exits: it is one timer per sample period for the process lifetime,
// the always-on contract of the feature.
func (a *ASHSampler) start() {
	a.once.Do(func() { go a.loop() })
}

func (a *ASHSampler) loop() {
	for {
		time.Sleep(time.Second / time.Duration(a.rate.Load()))
		if !a.enabled.Load() {
			continue
		}
		a.sampleOnce(time.Now())
	}
}

// sampleOnce appends one sample per live session to the ring. Split from
// loop so tests can drive the sampler deterministically.
func (a *ASHSampler) sampleOnce(now time.Time) {
	states := liveSessions()
	if len(states) == 0 {
		return
	}
	nowNS := now.UnixNano()
	samples := make([]ASHSample, 0, len(states))
	for _, st := range states {
		s := ASHSample{TimeNS: nowNS, Session: st.id, Proc: st.proc, Txn: st.txn.Load()}
		raw := st.event.Load()
		ev := WaitNone
		if raw > 0 && raw < int32(numWaitEvents) {
			ev = WaitEvent(raw)
		}
		stmt := st.stmt.Load()
		switch {
		case ev == WaitClientRead:
			s.State, s.Event = "idle", ev.Name()
		case ev != WaitNone:
			s.State, s.Event = "waiting", ev.Name()
		case stmt != nil:
			s.State = "cpu"
		default:
			s.State = "idle"
		}
		if ev != WaitNone {
			if begun := st.waitStart.Load(); begun > 0 && begun <= nowNS {
				s.WaitNS = nowNS - begun
			}
		}
		if stmt != nil {
			s.Fingerprint = stmt.Fingerprint
		}
		if tr := st.trace.Load(); tr != nil {
			s.TraceID = *tr
		}
		samples = append(samples, s)
	}
	a.mu.Lock()
	for _, s := range samples {
		a.ring[a.next] = s
		a.next++
		if a.next == len(a.ring) {
			a.next = 0
			a.filled = true
		}
	}
	a.mu.Unlock()
	mASHSamples.Add(int64(len(samples)))
}

// Samples returns the ring's contents in chronological order (oldest
// first) — the provider behind ldv_stat_ash and the /ash endpoint.
func (a *ASHSampler) Samples() []ASHSample {
	a.mu.Lock()
	var out []ASHSample
	if a.filled {
		out = make([]ASHSample, 0, len(a.ring))
		out = append(out, a.ring[a.next:]...)
		out = append(out, a.ring[:a.next]...)
	} else {
		out = append([]ASHSample(nil), a.ring[:a.next]...)
	}
	a.mu.Unlock()
	// Ring order is already chronological per-tick; a stable sort keeps the
	// contract explicit even if ticks ever interleave with a reset.
	sort.SliceStable(out, func(i, j int) bool { return out[i].TimeNS < out[j].TimeNS })
	return out
}

// Len returns the number of samples currently held.
func (a *ASHSampler) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.filled {
		return len(a.ring)
	}
	return a.next
}

func (a *ASHSampler) reset() {
	a.mu.Lock()
	a.next = 0
	a.filled = false
	a.mu.Unlock()
}

// ResetASH clears the ASH ring (the benchmark harness isolates runs with
// it, alongside Registry.Reset for the metrics).
func ResetASH() { defaultASH.reset() }
