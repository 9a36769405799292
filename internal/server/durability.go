package server

import (
	"fmt"
	"sync"
	"time"

	"ldv/internal/engine"
	"ldv/internal/obs"
)

// Checkpoints taken by the server (periodic background ones and explicit
// Checkpoint calls), for the metrics snapshot.
var mCheckpoints = obs.NewCounter("server.checkpoints", "Checkpoints taken by the server")

// durability is the server's background checkpointer state, created by
// EnableDurability and torn down by Close.
type durability struct {
	fs   engine.FileSystem
	dir  string
	stop chan struct{}
	wg   sync.WaitGroup
}

// EnableDurability makes the server's database durable under dir on fs: it
// recovers existing state (latest checkpoint plus WAL tail), attaches the
// write-ahead log so every subsequent commit is logged before it is
// acknowledged, and — when interval > 0 — starts a background goroutine
// that checkpoints the data directory every interval, truncating the WAL it
// supersedes. Call Close to stop the checkpointer and take a final
// checkpoint. Returns what recovery replayed.
func (s *Server) EnableDurability(fs engine.FileSystem, dir string, interval time.Duration) (engine.RecoveryStats, error) {
	s.mu.Lock()
	if s.dur != nil {
		s.mu.Unlock()
		return engine.RecoveryStats{}, fmt.Errorf("durability already enabled")
	}
	// Reserve the slot before the (lock-free) recovery so concurrent
	// EnableDurability calls cannot both proceed.
	d := &durability{fs: fs, dir: dir, stop: make(chan struct{})}
	s.dur = d
	s.mu.Unlock()

	stats, err := s.db.Recover(fs, dir)
	if err != nil {
		s.mu.Lock()
		s.dur = nil
		s.mu.Unlock()
		return stats, err
	}
	s.logger.Info("recovery complete", "dir", dir, "tables", int64(stats.Tables),
		"replayed_txns", int64(stats.ReplayedTxns), "wal_bytes", stats.WALBytes,
		"torn_bytes", stats.TornBytes)

	if interval > 0 {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-t.C:
					if err := s.Checkpoint(); err != nil {
						s.logger.Error("background checkpoint failed", "err", err)
					}
				}
			}
		}()
	}
	return stats, nil
}

// Checkpoint writes the database's data directory now and truncates the WAL
// records the checkpoint supersedes. Durability must be enabled.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	d := s.dur
	s.mu.Unlock()
	if d == nil {
		return fmt.Errorf("durability not enabled")
	}
	if err := s.db.Checkpoint(d.fs, d.dir); err != nil {
		return err
	}
	mCheckpoints.Inc()
	return nil
}

// Close stops the background checkpointer (if running) and takes a final
// checkpoint so a clean shutdown leaves an empty WAL tail. Safe to call when
// durability was never enabled.
func (s *Server) Close() error {
	s.mu.Lock()
	d := s.dur
	s.dur = nil
	s.mu.Unlock()
	if d == nil {
		return nil
	}
	close(d.stop)
	d.wg.Wait()
	if err := s.db.Checkpoint(d.fs, d.dir); err != nil {
		return err
	}
	mCheckpoints.Inc()
	return nil
}
