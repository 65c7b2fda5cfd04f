package engine

import (
	"encoding/json"
	"fmt"
	"sort"

	"semandaq/internal/relation"
	"semandaq/internal/wal"
)

// The coordinator's durability model is simpler than the engine's: it
// holds no tuple data, only a tiny registry (schemas, per-worker
// counts, constraint text). Its WAL records therefore carry everything
// needed to rebuild the CLUSTER — register records log the full rows
// (they double as the worker re-feed source), appends log the raw
// fields replayed through the same tail-worker path — and recovery is
// a straight replay that drops whatever stale slices the workers still
// hold and re-feeds them. The coordinator never checkpoints: its log
// is the snapshot.

// --- wal.Applier: recovery-side replay. The journal must be detached
// while these run (SetJournal after Recover).

// ApplySnapshot is unexpected: the coordinator does not checkpoint.
func (c *Coordinator) ApplySnapshot(name string, _ *wal.DatasetSnapshot) error {
	return fmt.Errorf("engine: unexpected snapshot for %q in coordinator log", name)
}

// ApplyRegister replays a cluster registration: any stale slice a
// worker still holds (it may have survived the coordinator's crash) is
// dropped, then Register's own partition re-feeds every worker its
// range of the logged rows.
func (c *Coordinator) ApplyRegister(name string, schema *relation.Schema, rows []relation.Tuple) error {
	for _, cl := range c.clients {
		_ = cl.Drop(name)
	}
	_, err := c.registerRows(name, schema, rows)
	return err
}

// ApplyAppend is unexpected: the coordinator journals raw appends.
func (c *Coordinator) ApplyAppend(name string, _ []relation.Tuple) error {
	return fmt.Errorf("engine: unexpected tuple-append record for %q in coordinator log", name)
}

// ApplyCells is unexpected: cluster mode has no cell-repair path.
func (c *Coordinator) ApplyCells(name string, _ []wal.CellWrite, _ bool) error {
	return fmt.Errorf("engine: unexpected cell record for %q in coordinator log", name)
}

// ApplyConfirm is unexpected: cluster mode has no confirmation path.
func (c *Coordinator) ApplyConfirm(name string, _, _ int) error {
	return fmt.Errorf("engine: unexpected confirm record for %q in coordinator log", name)
}

// ApplyAppendRaw replays an append through the same tail-worker
// incremental-repair path the original took, so the worker ends with
// the same repaired delta.
func (c *Coordinator) ApplyAppendRaw(name string, rows [][]string) error {
	cd, err := c.lookup(name)
	if err != nil {
		return err
	}
	_, err = cd.AppendRows(rows)
	return err
}

// --- registry mirror.

// mirrorEntry is one dataset's entry in the JSON registry mirror.
type mirrorEntry struct {
	Name    string `json:"name"`
	Schema  string `json:"schema"`
	Counts  []int  `json:"worker_counts"`
	CFDText string `json:"cfds,omitempty"`
	DCText  string `json:"dcs,omitempty"`
}

// mirrorDoc is the coordinator's registry-mirror document.
type mirrorDoc struct {
	Workers  []string      `json:"workers"`
	Datasets []mirrorEntry `json:"datasets"`
}

// mirrorRegistry writes the coordinator's registry as JSON next to the
// WAL when the journal supports it (wal.Manager does). Informational —
// an operator-readable description of the cluster; the WAL is the
// authoritative recovery source — so failures are ignored.
func (c *Coordinator) mirrorRegistry() {
	j := c.getJournal()
	rw, ok := j.(RegistryWriter)
	if !ok {
		return
	}
	reg := mirrorDoc{Workers: c.Workers()}
	for _, name := range c.List() {
		cd, ok := c.Get(name)
		if !ok {
			continue
		}
		cd.mu.RLock()
		reg.Datasets = append(reg.Datasets, mirrorEntry{
			Name:    name,
			Schema:  cd.schema.String(),
			Counts:  append([]int(nil), cd.counts...),
			CFDText: cd.cfdText,
			DCText:  cd.dcText,
		})
		cd.mu.RUnlock()
	}
	sort.Slice(reg.Datasets, func(i, k int) bool { return reg.Datasets[i].Name < reg.Datasets[k].Name })
	data, err := json.MarshalIndent(reg, "", "  ")
	if err != nil {
		return
	}
	_ = rw.WriteRegistry(data)
}
