package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// maxStatementEntries bounds the per-fingerprint map: a workload that keeps
// generating fresh statement shapes (fingerprinting already collapses
// literals, so this takes real schema churn) stops gaining rows rather than
// growing without bound. Existing fingerprints keep accumulating.
const maxStatementEntries = 4096

// StatementStats is the cumulative per-fingerprint statement store behind
// ldv_stat_statements and the ops /statements view. One entry per statement
// fingerprint accumulates calls, errors, row counts, and parse/plan/exec
// latency histograms; recording is lock-free after an entry exists (one
// RLock for the map lookup, then atomics only).
type StatementStats struct {
	mu sync.RWMutex
	m  map[uint64]*stmtEntry
}

type stmtEntry struct {
	hash  uint64
	text  string
	calls atomic.Int64
	errs  atomic.Int64
	rows  atomic.Int64
	parse *Histogram
	plan  *Histogram
	exec  *Histogram
	trace atomic.Value // string: last trace ID, "" when untraced
}

func newStatementStats() *StatementStats {
	return &StatementStats{m: map[uint64]*stmtEntry{}}
}

// Record folds one finished statement into its fingerprint's entry.
func (s *StatementStats) Record(hash uint64, text string, parseNS, planNS, execNS, rows int64, failed bool, traceID string) {
	if hash == 0 {
		return
	}
	s.mu.RLock()
	e := s.m[hash]
	s.mu.RUnlock()
	if e == nil {
		s.mu.Lock()
		e = s.m[hash]
		if e == nil {
			if len(s.m) >= maxStatementEntries {
				s.mu.Unlock()
				return
			}
			e = &stmtEntry{hash: hash, text: text,
				parse: newHistogram(), plan: newHistogram(), exec: newHistogram()}
			s.m[hash] = e
		}
		s.mu.Unlock()
	}
	e.calls.Add(1)
	if failed {
		e.errs.Add(1)
	}
	e.rows.Add(rows)
	e.parse.Record(parseNS)
	e.plan.Record(planNS)
	e.exec.Record(execNS)
	if traceID != "" {
		e.trace.Store(traceID)
	}
}

// StatementStat is the exported point-in-time state of one fingerprint.
type StatementStat struct {
	Hash        uint64            `json:"hash"`
	Text        string            `json:"text"`
	Calls       int64             `json:"calls"`
	Errors      int64             `json:"errors"`
	Rows        int64             `json:"rows"`
	Parse       HistogramSnapshot `json:"parse_ns"`
	Plan        HistogramSnapshot `json:"plan_ns"`
	Exec        HistogramSnapshot `json:"exec_ns"`
	LastTraceID string            `json:"last_trace_id,omitempty"`
}

// Snapshot returns every fingerprint's cumulative stats, ordered by total
// execution time descending (the "what is this database spending its time
// on" ordering), ties broken by fingerprint text for determinism.
func (s *StatementStats) Snapshot() []StatementStat {
	s.mu.RLock()
	entries := make([]*stmtEntry, 0, len(s.m))
	for _, e := range s.m {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	out := make([]StatementStat, 0, len(entries))
	for _, e := range entries {
		st := StatementStat{
			Hash:   e.hash,
			Text:   e.text,
			Calls:  e.calls.Load(),
			Errors: e.errs.Load(),
			Rows:   e.rows.Load(),
			Parse:  e.parse.snapshot(),
			Plan:   e.plan.snapshot(),
			Exec:   e.exec.snapshot(),
		}
		if t, ok := e.trace.Load().(string); ok {
			st.LastTraceID = t
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exec.Sum != out[j].Exec.Sum {
			return out[i].Exec.Sum > out[j].Exec.Sum
		}
		return out[i].Text < out[j].Text
	})
	return out
}

// Len returns the number of distinct fingerprints recorded.
func (s *StatementStats) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

func (s *StatementStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = map[uint64]*stmtEntry{}
}

// Statements returns this registry's per-fingerprint statement store.
func (r *Registry) Statements() *StatementStats { return r.stmts }

// Statements returns the default registry's statement store.
func Statements() *StatementStats { return defaultRegistry.Statements() }
