package repl

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"ldv/internal/engine"
	"ldv/internal/wire"
)

// DefaultWaitTimeout bounds how long a gated read waits for the apply loop
// to reach its read-your-writes position before failing the query.
const DefaultWaitTimeout = 10 * time.Second

// Replica maintains a read-only copy of a primary database: it bootstraps
// from a snapshot stream, then tails WAL segments, applying each record in
// an apply transaction so local reads stay snapshot-consistent. Reconnects
// always re-bootstrap — sequence numbers are process-local to the primary,
// so a fresh snapshot is the only safe resume point.
type Replica struct {
	db   *engine.DB
	id   string
	dial func() (net.Conn, error)

	// WaitTimeout bounds WaitApplied; exported so tests can shrink it.
	WaitTimeout time.Duration

	mu        sync.Mutex
	cond      *sync.Cond
	conn      net.Conn
	ready     bool // bootstrap finished; appliedSeq is meaningful
	promoted  bool
	stopped   bool
	stopCh    chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	applyHook func(op string) error
	lastErr   error

	appliedSeq uint64 // last WAL record applied (or snapshot cut)
	appliedTS  uint64 // engine clock position of the last applied record
	headSeq    uint64 // highest sequence the primary has announced
}

// New creates a replica of the primary reachable through dial, putting db
// into read-only mode immediately so no local write can diverge from the
// stream. Call Start (or Run) to begin replication.
func New(db *engine.DB, id string, dial func() (net.Conn, error)) *Replica {
	r := &Replica{
		db:          db,
		id:          id,
		dial:        dial,
		WaitTimeout: DefaultWaitTimeout,
		stopCh:      make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	db.SetReadOnly(true)
	r.registerView()
	return r
}

// SetApplyHook installs a test hook invoked before each apply operation
// ("snapshot:<table>" per chunk, "apply:<seq>" per record). Returning an
// error aborts the current Run — crash tests use this to kill the replica
// at every operation.
func (r *Replica) SetApplyHook(fn func(op string) error) {
	r.mu.Lock()
	r.applyHook = fn
	r.mu.Unlock()
}

func (r *Replica) hook(op string) error {
	r.mu.Lock()
	fn := r.applyHook
	r.mu.Unlock()
	if fn != nil {
		return fn(op)
	}
	return nil
}

// Start runs the replication loop in the background, reconnecting with
// exponential backoff until Stop or Promote.
func (r *Replica) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		backoff := 50 * time.Millisecond
		for {
			err := r.Run()
			if r.isStopped() {
				return
			}
			if err != nil {
				slog.Warn("replication: run ended, reconnecting", "replica", r.id, "err", err)
				r.mu.Lock()
				r.lastErr = err
				r.mu.Unlock()
			}
			mReconnects.Inc()
			select {
			case <-r.stopCh:
				return
			case <-time.After(backoff):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
	}()
}

// Run performs one full subscription: dial, handshake, bootstrap, and tail
// segments until the connection drops, an apply fails, or Stop is called.
func (r *Replica) Run() error {
	conn, err := r.dial()
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		conn.Close()
		return nil
	}
	r.conn = conn
	r.mu.Unlock()
	defer func() {
		conn.Close()
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
	}()

	if err := wire.Write(conn, wire.Startup{Proc: "replica:" + r.id}); err != nil {
		return err
	}
	msg, err := wire.Read(conn)
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case wire.Ready:
	case wire.Error:
		return fmt.Errorf("replication handshake: %s", m.Message)
	default:
		return fmt.Errorf("replication handshake: unexpected %T", msg)
	}
	if err := wire.Write(conn, wire.Subscribe{ReplicaID: r.id}); err != nil {
		return err
	}

	// Bootstrap: wipe local state and load the snapshot stream. Reads are
	// gated on r.ready, so a re-bootstrap is invisible to gated clients
	// beyond added latency.
	r.mu.Lock()
	r.ready = false
	r.mu.Unlock()
	r.db.ClearForReplication()
	mBootstraps.Inc()
	var cut uint64
bootstrap:
	for {
		msg, err := wire.Read(conn)
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case wire.SnapshotChunk:
			if m.Done {
				cut = m.CutSeq
				break bootstrap
			}
			if err := r.hook("snapshot:" + m.Table); err != nil {
				return err
			}
			if _, err := r.db.LoadTableImage(m.Data); err != nil {
				return fmt.Errorf("replication bootstrap: %w", err)
			}
		case wire.Error:
			return fmt.Errorf("replication bootstrap: primary refused: %s", m.Message)
		default:
			return fmt.Errorf("replication bootstrap: unexpected %T", msg)
		}
	}
	r.db.FinishLoad()

	r.mu.Lock()
	r.appliedSeq = cut
	r.appliedTS = r.db.ClockNow()
	if cut > r.headSeq {
		r.headSeq = cut
	}
	r.ready = true
	r.cond.Broadcast()
	r.mu.Unlock()
	gAppliedSeq.Set(int64(cut))
	slog.Info("replication: bootstrap complete", "replica", r.id, "cut_seq", cut)

	applier := r.db.NewApplier()
	for {
		msg, err := wire.Read(conn)
		if err != nil {
			if r.isStopped() {
				return nil
			}
			return err
		}
		switch m := msg.(type) {
		case wire.WALSegment:
			if err := r.applySegment(applier, m); err != nil {
				return err
			}
			r.mu.Lock()
			st := wire.ReplicaStatus{ID: r.id, AppliedSeq: r.appliedSeq, AppliedTS: r.appliedTS}
			r.mu.Unlock()
			if err := wire.Write(conn, st); err != nil {
				return err
			}
		case wire.Error:
			return fmt.Errorf("replication stream: %s", m.Message)
		default:
			return fmt.Errorf("replication stream: unexpected %T", msg)
		}
	}
}

// applySegment applies one shipped segment, skipping records already applied
// (resend overlap) and rejecting gaps. Each record commits atomically into
// visibility via the engine's apply transaction, so a reader concurrent with
// this loop sees an exact prefix of the primary's commit order.
func (r *Replica) applySegment(a *engine.Applier, seg wire.WALSegment) error {
	r.mu.Lock()
	next := r.appliedSeq + 1
	r.mu.Unlock()
	if seg.FirstSeq > next {
		return fmt.Errorf("replication: stream gap: segment starts at %d, expected %d", seg.FirstSeq, next)
	}
	for i, rec := range seg.Records {
		seq := seg.FirstSeq + uint64(i)
		if seq < next {
			continue
		}
		if err := r.hook(fmt.Sprintf("apply:%d", seq)); err != nil {
			return err
		}
		ts, err := a.ApplyRecord(seq, rec)
		if err != nil {
			return fmt.Errorf("replication: apply record %d: %w", seq, err)
		}
		mRecordsApplied.Inc()
		r.mu.Lock()
		r.appliedSeq = seq
		if ts > r.appliedTS {
			r.appliedTS = ts
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		gAppliedSeq.Set(int64(seq))
		next = seq + 1
	}
	head := seg.FirstSeq + uint64(len(seg.Records))
	if head > 0 {
		head-- // last sequence covered; heartbeats carry FirstSeq = next
	}
	r.mu.Lock()
	if head > r.headSeq {
		r.headSeq = head
	}
	r.mu.Unlock()
	return nil
}

// WaitApplied blocks until the apply position reaches minSeq (and the
// replica is bootstrapped), implementing the server's read gate. It returns
// immediately after promotion — the local database is then the source of
// truth. A replica that cannot catch up within WaitTimeout fails the read
// rather than serving stale data under a read-your-writes bound.
func (r *Replica) WaitApplied(minSeq uint64) error {
	// The timer takes r.mu before broadcasting so the wakeup cannot fall
	// into the window between the deadline check and cond.Wait.
	timer := time.AfterFunc(r.WaitTimeout, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(r.WaitTimeout)

	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.promoted {
			return nil
		}
		if r.ready && r.appliedSeq >= minSeq {
			return nil
		}
		if r.stopped {
			return fmt.Errorf("replication: replica stopped")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication: read gate timeout: waiting for seq %d, applied %d", minSeq, r.appliedSeq)
		}
		r.cond.Wait()
	}
}

// Promote stops replication and makes the local database writable. Safe to
// call more than once. The caller is responsible for repointing clients and,
// if the promoted node should serve replicas of its own, enabling durability
// and creating a Primary.
func (r *Replica) Promote() error {
	r.mu.Lock()
	if r.promoted {
		r.mu.Unlock()
		return nil
	}
	r.promoted = true
	r.mu.Unlock()
	r.Stop()
	r.db.SetReadOnly(false)
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
	mPromotions.Inc()
	slog.Info("replication: promoted to primary", "replica", r.id)
	return nil
}

// Stop ends replication and waits for the background loop to exit.
func (r *Replica) Stop() {
	r.mu.Lock()
	r.stopped = true
	conn := r.conn
	r.cond.Broadcast()
	r.mu.Unlock()
	r.stopOnce.Do(func() { close(r.stopCh) })
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
}

func (r *Replica) isStopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

// AppliedSeq reports the last applied WAL record sequence.
func (r *Replica) AppliedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedSeq
}

// Ready reports whether bootstrap has completed and the stream is live.
func (r *Replica) Ready() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready
}

// ReplicationStatus reports the replica's apply state for the ops endpoint.
func (r *Replica) ReplicationStatus() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	role := "replica"
	if r.promoted {
		role = "promoted"
	}
	st := map[string]any{
		"role":        role,
		"ready":       r.ready,
		"applied_seq": r.appliedSeq,
		"applied_ts":  r.appliedTS,
		"head_seq":    r.headSeq,
		"lag_records": int64(r.headSeq) - int64(r.appliedSeq),
	}
	if r.lastErr != nil {
		st["last_error"] = r.lastErr.Error()
	}
	return st
}
