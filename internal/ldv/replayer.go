package ldv

import (
	"fmt"
	"slices"
	"sync"

	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/osim"
)

// Replayer serves recorded DB interactions during server-excluded
// re-execution (§VIII): connection requests are matched to recorded
// sessions in open order, and each statement — however the application
// issues it: as text, through a prepared statement, on a pipeline — must
// follow the recorded order, SQL text and bound values; its recorded response
// is substituted for a server round trip.
type Replayer struct {
	mu       sync.Mutex
	sessions []*SessionLog
	next     int
}

// NewReplayer builds a replayer over a package's DB log.
func NewReplayer(sessions []*SessionLog) *Replayer {
	return &Replayer{sessions: sessions}
}

// Session hands out the interceptors for the next recorded session. It
// fails when the application opens more connections than were recorded —
// replay guarantees hold only for executions that follow the recorded
// behaviour.
func (r *Replayer) Session(p *osim.Process) ([]client.Interceptor, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next >= len(r.sessions) {
		return nil, fmt.Errorf("replay: no recorded session for connection %d", r.next+1)
	}
	log := r.sessions[r.next]
	r.next++
	return []client.Interceptor{&replayInterceptor{log: log}}, nil
}

// Remaining reports how many recorded sessions have not been replayed yet.
func (r *Replayer) Remaining() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions) - r.next
}

type replayInterceptor struct {
	client.BaseInterceptor
	mu   sync.Mutex
	log  *SessionLog
	next int
}

// BeforeQuery serves the next recorded response. A mismatch of the SQL or of
// the values bound to it means the re-execution diverged from the recorded
// one, which voids the replay guarantee, so it is an error.
func (ic *replayInterceptor) BeforeQuery(info *client.QueryInfo) (*engine.Result, error) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.next >= len(ic.log.Entries) {
		return nil, fmt.Errorf("replay: statement %q beyond recorded session end", info.SQL)
	}
	entry := &ic.log.Entries[ic.next]
	ic.next++
	if args := encodeRowCells(info.Args); entry.SQL != info.SQL || !slices.Equal(entry.Args, args) {
		return nil, fmt.Errorf("replay: statement %q diverges from recorded %q",
			describeStatement(info.SQL, args), describeStatement(entry.SQL, entry.Args))
	}
	return entry.Result()
}
