package obs

import (
	"testing"
	"time"
)

// sessionSamples filters a sampler's ring down to one session's samples, so
// assertions ignore sessions registered by other tests in the package.
func sessionSamples(a *ASHSampler, id int64) []ASHSample {
	var out []ASHSample
	for _, s := range a.Samples() {
		if s.Session == id {
			out = append(out, s)
		}
	}
	return out
}

func TestASHSampleStates(t *testing.T) {
	const sid = 9201
	a := newASHSampler(64)
	st := RegisterSession(sid, "ashtest")
	defer UnregisterSession(sid)

	// Explicit, strictly increasing tick times keep the chronological order
	// of Samples() aligned with the order of the sampleOnce calls.
	base := time.Now()
	// Idle: registered, nothing running.
	a.sampleOnce(base)
	// On CPU mid-statement.
	st.StartStatement(&StmtInfo{Fingerprint: "fp1"}, "trace1", time.Now())
	st.SetTxn(42)
	a.sampleOnce(base.Add(time.Millisecond))
	// Blocked on a table lock (the tick lands mid-wait, so wait_ns > 0).
	end := WaitBegin(st, WaitLockTable)
	a.sampleOnce(base.Add(2 * time.Millisecond))
	end()
	st.FinishStatement()
	st.SetTxn(0)
	// Waiting for the next client message: idle, but attributed.
	endRead := WaitBegin(st, WaitClientRead)
	a.sampleOnce(base.Add(3 * time.Millisecond))
	endRead()

	got := sessionSamples(a, sid)
	if len(got) != 4 {
		t.Fatalf("samples = %d, want 4", len(got))
	}
	if got[0].State != "idle" || got[0].Event != "" {
		t.Fatalf("sample 0 = %+v, want plain idle", got[0])
	}
	if got[1].State != "cpu" || got[1].Fingerprint != "fp1" || got[1].TraceID != "trace1" || got[1].Txn != 42 {
		t.Fatalf("sample 1 = %+v, want cpu with statement identity", got[1])
	}
	if got[2].State != "waiting" || got[2].Event != "lock.table" {
		t.Fatalf("sample 2 = %+v, want waiting on lock.table", got[2])
	}
	if got[2].WaitNS <= 0 {
		t.Fatalf("sample 2 wait_ns = %d, want > 0 (time already in the wait)", got[2].WaitNS)
	}
	if got[3].State != "idle" || got[3].Event != "client.read" {
		t.Fatalf("sample 3 = %+v, want idle on client.read", got[3])
	}
	if got[0].Proc != "ashtest" {
		t.Fatalf("proc = %q", got[0].Proc)
	}
}

func TestASHRingWrap(t *testing.T) {
	const sid = 9202
	a := newASHSampler(4)
	RegisterSession(sid, "wraptest")
	defer UnregisterSession(sid)

	base := time.Now()
	for i := 0; i < 6; i++ {
		a.sampleOnce(base.Add(time.Duration(i) * time.Millisecond))
	}
	if a.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", a.Len())
	}
	got := sessionSamples(a, sid)
	// Other tests' sessions may claim ring slots; this session's surviving
	// samples must still be the newest and in order.
	for i := 1; i < len(got); i++ {
		if got[i].TimeNS < got[i-1].TimeNS {
			t.Fatalf("samples out of order: %d before %d", got[i].TimeNS, got[i-1].TimeNS)
		}
	}
	if len(got) > 0 && got[len(got)-1].TimeNS != base.Add(5*time.Millisecond).UnixNano() {
		t.Fatalf("newest sample = %d, want the last tick's", got[len(got)-1].TimeNS)
	}

	a.reset()
	if a.Len() != 0 || len(a.Samples()) != 0 {
		t.Fatalf("after reset: Len=%d Samples=%d", a.Len(), len(a.Samples()))
	}
}

func TestASHRateClampAndKillSwitch(t *testing.T) {
	a := newASHSampler(8)
	a.SetRate(0)
	if a.Rate() != 1 {
		t.Fatalf("rate after SetRate(0) = %d, want 1", a.Rate())
	}
	a.SetRate(999999)
	if a.Rate() != maxASHRate {
		t.Fatalf("rate after huge SetRate = %d, want %d", a.Rate(), maxASHRate)
	}
	a.SetRate(250)
	if a.Rate() != 250 {
		t.Fatalf("rate = %d", a.Rate())
	}

	if !a.Enabled() {
		t.Fatal("sampler must start enabled (always-on default)")
	}
	a.SetEnabled(false)
	if a.Enabled() {
		t.Fatal("kill switch did not stick")
	}
	a.SetEnabled(true)
	if !a.Enabled() {
		t.Fatal("re-enable did not stick")
	}
}

// TestASHNoSessions: a tick with no registered sessions records nothing (and
// allocates no ring slots).
func TestASHNoSessions(t *testing.T) {
	a := newASHSampler(8)
	sessMu.RLock()
	empty := len(sessions) == 0
	sessMu.RUnlock()
	if !empty {
		t.Skip("other tests hold registered sessions")
	}
	a.sampleOnce(time.Now())
	if a.Len() != 0 {
		t.Fatalf("Len = %d after sampling an empty session set", a.Len())
	}
}
