package engine

import (
	"fmt"
	"os"
	"sort"

	"semandaq/internal/relation"
	"semandaq/internal/repair"
	"semandaq/internal/wal"
)

// Journal is the engine's durability hook, implemented by wal.Manager.
// Every method is called while holding the exclusion that serializes
// mutations of the named dataset, AFTER the in-memory mutation is
// known to succeed and BEFORE the request is acked: an error means the
// operation is not durable and the caller rolls its state back (or
// refuses the ack), so an acked write is always a journaled — and,
// under the default sync policy, fsynced — write.
//
// The journal records effects, not intents: append records carry the
// POST-repair final values of the delta rows and repair commits carry
// the sorted cell-change list, so replay is deterministic raw
// insertion with zero detection or repair work.
type Journal interface {
	LogRegister(name string, schema *relation.Schema, rows []relation.Tuple) error
	LogAppend(name string, rows []relation.Tuple) error
	LogCells(name string, cells []wal.CellWrite, confirm bool) error
	LogConfirm(name string, tid, attr int) error
	LogConstraints(name, text string) error
	LogDCs(name, text string) error
	LogDrop(name string) error
	LogAppendRaw(name string, rows [][]string) error
}

// RegistryWriter is the optional journal extension the cluster
// coordinator uses to mirror its tiny registry (schemas, per-worker
// counts, constraint text) as JSON next to the WAL. Informational: the
// WAL is the authoritative recovery source.
type RegistryWriter interface {
	WriteRegistry(data []byte) error
}

func (s *Session) setJournal(j Journal) {
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()
}

// retire journals the drop under the session's write lock (see
// member.retire).
func (s *Session) retire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped || s.journal != nil && s.journal.LogDrop(s.name) != nil {
		return false
	}
	s.dropped = true
	return true
}

// release unlinks the session's spill directory, which on Linux leaves
// already-mapped segment files readable until their last reference
// drops (a straggler page-in of an unlinked file just falls back to a
// rebuild).
func (s *Session) release() {
	if dir := s.SpillDir(); dir != "" {
		os.RemoveAll(dir)
	}
}

// changeCells converts a repair change list (already sorted by
// (TID, Attr)) to the WAL's cell-write form.
func changeCells(changes []repair.Change) []wal.CellWrite {
	out := make([]wal.CellWrite, len(changes))
	for i, ch := range changes {
		out[i] = wal.CellWrite{TID: ch.TID, Attr: ch.Attr, Value: ch.To}
	}
	return out
}

// --- wal.Applier: recovery-side appliers. The journal must be detached
// while these run (recovery replays, it does not re-log).

// ApplySnapshot registers a dataset from its checkpoint: the relation
// is adopted cell-exactly, then the constraint/DC sets are recompiled
// from their canonical text and the confirmed cells restored.
func (e *Engine) ApplySnapshot(name string, snap *wal.DatasetSnapshot) error {
	s, err := e.Register(name, snap.Data)
	if err != nil {
		return err
	}
	if snap.CFDText != "" {
		if _, err := e.InstallConstraints(name, snap.CFDText); err != nil {
			return fmt.Errorf("constraints: %v", err)
		}
	}
	if snap.DCText != "" {
		if _, err := e.InstallDCs(name, snap.DCText); err != nil {
			return fmt.Errorf("dcs: %v", err)
		}
	}
	s.mu.Lock()
	for _, cell := range snap.Confirmed {
		s.confirmed[[2]int{cell[0], cell[1]}] = true
	}
	s.mu.Unlock()
	return nil
}

// ApplyRegister replays a dataset registration through the
// exact-reproduction ingest path (the logged rows are the
// post-validation stored rows).
func (e *Engine) ApplyRegister(name string, schema *relation.Schema, rows []relation.Tuple) error {
	_, err := e.RegisterExact(name, schema, rows)
	return err
}

// ApplyAppend replays an append batch: the rows carry their
// post-repair final values, so this is raw insertion — no detection,
// no repair.
func (e *Engine) ApplyAppend(name string, rows []relation.Tuple) error {
	s, err := e.lookup(name)
	if err != nil {
		return err
	}
	return s.replayAppend(rows)
}

// ApplyCells replays a repair commit or edit.
func (e *Engine) ApplyCells(name string, cells []wal.CellWrite, confirm bool) error {
	s, err := e.lookup(name)
	if err != nil {
		return err
	}
	return s.replayCells(cells, confirm)
}

// ApplyConfirm replays a cell confirmation.
func (e *Engine) ApplyConfirm(name string, tid, attr int) error {
	s, err := e.lookup(name)
	if err != nil {
		return err
	}
	return s.Confirm(tid, attr)
}

// ApplyAppendRaw never occurs in a single-process log (raw appends are
// the coordinator's record form).
func (e *Engine) ApplyAppendRaw(name string, rows [][]string) error {
	return fmt.Errorf("engine: unexpected raw-append record for %q in engine log", name)
}

// replayAppend inserts recovered rows exactly as logged.
func (s *Session) replayAppend(rows []relation.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	arity := s.data.Schema().Arity()
	for i, t := range rows {
		if len(t) != arity {
			return fmt.Errorf("engine: replayed row %d has arity %d, want %d", i, len(t), arity)
		}
		s.data.InsertUnchecked(t)
	}
	s.mutated()
	return nil
}

// replayCells applies a recovered cell-change list.
func (s *Session) replayCells(cells []wal.CellWrite, confirm bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cells {
		if err := s.checkCell(c.TID, c.Attr); err != nil {
			return err
		}
		s.data.Set(c.TID, c.Attr, c.Value)
		if confirm {
			s.confirmed[[2]int{c.TID, c.Attr}] = true
		}
	}
	s.mutated()
	return nil
}

// --- wal.CheckpointSource: coherent capture for snapshots.

// DatasetNames lists the datasets a checkpoint must capture.
func (e *Engine) DatasetNames() []string { return e.List() }

// CaptureDataset captures one dataset's full durable state plus the
// WAL watermark, atomically: state and watermark are read under the
// session's read lock, and every journal append for this dataset
// happens under the write lock, so a record is either fully reflected
// in the capture (seq <= watermark) or wholly after it.
func (e *Engine) CaptureDataset(name string, seq func() uint64) (*wal.DatasetSnapshot, bool) {
	s, ok := e.Get(name)
	if !ok {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := &wal.DatasetSnapshot{
		Seq:     seq(),
		Schema:  s.data.Schema(),
		Data:    s.data.Clone(),
		CFDText: s.set.String(),
		DCText:  s.dcs.String(),
	}
	snap.Confirmed = make([][2]int, 0, len(s.confirmed))
	for c := range s.confirmed {
		snap.Confirmed = append(snap.Confirmed, c)
	}
	sort.Slice(snap.Confirmed, func(i, j int) bool {
		if snap.Confirmed[i][0] != snap.Confirmed[j][0] {
			return snap.Confirmed[i][0] < snap.Confirmed[j][0]
		}
		return snap.Confirmed[i][1] < snap.Confirmed[j][1]
	})
	return snap, true
}
