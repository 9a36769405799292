package obs

import (
	"testing"
	"time"
)

func TestWaitBeginAccumulates(t *testing.T) {
	Reset()
	st := RegisterSession(9101, "waittest")
	defer UnregisterSession(9101)

	end := WaitBegin(st, WaitLockTable)
	time.Sleep(time.Millisecond)
	end()

	var got WaitEventStat
	for _, s := range WaitEventStats() {
		if s.Event == WaitLockTable {
			got = s
		}
	}
	if got.Count != 1 {
		t.Fatalf("lock.table count = %d, want 1", got.Count)
	}
	if got.TotalNS < int64(time.Millisecond) {
		t.Fatalf("lock.table total = %d ns, want >= 1ms", got.TotalNS)
	}
	if got.Name != "lock.table" || got.Description == "" {
		t.Fatalf("stat metadata = %+v", got)
	}

	ev, domNS, totalNS := st.StatementWaits()
	if ev != WaitLockTable || domNS <= 0 || totalNS != domNS {
		t.Fatalf("StatementWaits = %v %d %d", ev, domNS, totalNS)
	}

	// The wait has ended: the session must be published as not waiting.
	if raw := st.event.Load(); raw != int32(WaitNone) {
		t.Fatalf("event after end = %d", raw)
	}
}

// TestWaitBeginNilSession: engine paths without a registered session pass a
// nil state — the cumulative counters must still advance and nothing panics.
func TestWaitBeginNilSession(t *testing.T) {
	Reset()
	end := WaitBegin(nil, WaitWALGroupCommit)
	end()
	for _, s := range WaitEventStats() {
		if s.Event == WaitWALGroupCommit && s.Count != 1 {
			t.Fatalf("wal.group_commit count = %d, want 1", s.Count)
		}
	}

	// All SessionState methods tolerate nil too.
	var st *SessionState
	st.StartStatement(&StmtInfo{Fingerprint: "fp"}, "tr", time.Now())
	st.FinishStatement()
	st.SetTxn(7)
	st.ResetStatementWaits()
	if ev, _, total := st.StatementWaits(); ev != WaitNone || total != 0 {
		t.Fatalf("nil StatementWaits = %v %d", ev, total)
	}
}

func TestStatementWaitsDominant(t *testing.T) {
	st := &SessionState{}
	st.stmtWaitNS[WaitLockTable].Store(300)
	st.stmtWaitNS[WaitWALGroupCommit].Store(900)
	ev, domNS, totalNS := st.StatementWaits()
	if ev != WaitWALGroupCommit || domNS != 900 || totalNS != 1200 {
		t.Fatalf("StatementWaits = %v %d %d, want wal.group_commit 900 1200", ev, domNS, totalNS)
	}

	st.ResetStatementWaits()
	if ev, _, total := st.StatementWaits(); ev != WaitNone || total != 0 {
		t.Fatalf("after reset = %v %d", ev, total)
	}
}

// TestWaitEventMetadata pins the taxonomy's external surface: names, metric
// names, and registered descriptions for every event.
func TestWaitEventMetadata(t *testing.T) {
	evs := WaitEvents()
	if len(evs) != int(numWaitEvents)-1 {
		t.Fatalf("WaitEvents() = %d events, want %d", len(evs), numWaitEvents-1)
	}
	seen := map[string]bool{}
	for _, e := range evs {
		if e == WaitNone {
			t.Fatal("WaitEvents includes WaitNone")
		}
		if e.Name() == "" || e.Description() == "" {
			t.Fatalf("event %d missing name or description", e)
		}
		if seen[e.Name()] {
			t.Fatalf("duplicate event name %q", e.Name())
		}
		seen[e.Name()] = true
		for _, m := range []string{e.CountMetric(), e.NSMetric()} {
			if d, ok := Description(m); !ok || d == "" {
				t.Errorf("%s: no description registered for %s", e.Name(), m)
			}
		}
	}
	if WaitLockTable.Name() != "lock.table" || WaitLockTable.NSMetric() != "wait.lock_table_ns" {
		t.Fatalf("lock.table surface changed: %q %q", WaitLockTable.Name(), WaitLockTable.NSMetric())
	}
}
