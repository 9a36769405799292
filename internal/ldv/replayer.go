package ldv

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/sqlval"
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
	opened   []*replayInterceptor // one per session handed out, in open order
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
	if len(r.opened) >= len(r.sessions) {
		return nil, fmt.Errorf("replay: no recorded session for connection %d", len(r.opened)+1)
	}
	ic := &replayInterceptor{log: r.sessions[len(r.opened)]}
	r.opened = append(r.opened, ic)
	return []client.Interceptor{ic}, nil
}

// Done reports whether the re-execution consumed the whole recording: an
// execution that never opened a recorded session, or left statements of one
// unissued, diverged from the recorded one as surely as one that issued
// something else.
func (r *Replayer) Done() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.opened); n < len(r.sessions) {
		return fmt.Errorf("replay: %d recorded sessions, the re-execution opened %d", len(r.sessions), n)
	}
	for i, ic := range r.opened {
		ic.mu.Lock()
		next := ic.next
		ic.mu.Unlock()
		if entries := ic.log.Entries; next < len(entries) {
			return fmt.Errorf("replay: session %d ended after %d of %d recorded statements; next recorded %q",
				i+1, next, len(entries), describeStatement(entries[next].SQL, entries[next].Args))
		}
	}
	return nil
}

type replayInterceptor struct {
	client.BaseInterceptor
	mu       sync.Mutex
	log      *SessionLog
	next     int
	got, rec []byte // the bound values' and the recorded ones' row encodings
}

// BeforeQuery serves the next recorded response. A mismatch of the SQL or of
// the values bound to it means the re-execution diverged from the recorded
// one, which voids the replay guarantee, so it is an error. Values match by
// their row-codec bytes, kind and all: INTEGER 2 is not FLOAT 2.0.
func (ic *replayInterceptor) BeforeQuery(info *client.QueryInfo) (*engine.Result, error) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.next >= len(ic.log.Entries) {
		return nil, fmt.Errorf("replay: statement %q beyond recorded session end", info.SQL)
	}
	entry := &ic.log.Entries[ic.next]
	ic.next++
	ic.got, ic.rec = sqlval.EncodeRow(ic.got[:0], info.Args), sqlval.EncodeRow(ic.rec[:0], entry.Args)
	if entry.SQL != info.SQL || !bytes.Equal(ic.got, ic.rec) {
		issued, recorded := describeStatement(info.SQL, info.Args), describeStatement(entry.SQL, entry.Args)
		if issued == recorded { // the values differ in kind only
			issued, recorded = issued+" "+kinds(info.Args), recorded+" "+kinds(entry.Args)
		}
		return nil, fmt.Errorf("replay: statement %q diverges from recorded %q", issued, recorded)
	}
	return entry.Result()
}

// kinds lists the kinds of values, e.g. "(INTEGER, TEXT)".
func kinds(vals []sqlval.Value) string {
	names := make([]string, len(vals))
	for i, v := range vals {
		names[i] = v.Kind().String()
	}
	return "(" + strings.Join(names, ", ") + ")"
}
