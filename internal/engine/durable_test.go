package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/relation"
	"semandaq/internal/wal"
)

// openDurable opens (or reopens) a durable engine over dir: recover
// whatever the directory holds into a fresh engine, then attach the
// journal — the same sequence the daemon runs at startup.
func openDurable(t *testing.T, dir string) (*Engine, *wal.Manager, int, int) {
	t.Helper()
	m, err := wal.OpenManager(dir, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	snaps, replayed, err := m.Recover(e)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	e.SetJournal(m)
	return e, m, snaps, replayed
}

// assertSameDataset asserts two sessions hold cell-identical state:
// same rows (by encoding bytes — the identity every detection and
// discovery answer depends on), same constraint/DC text, same
// confirmations.
func assertSameDataset(t *testing.T, want, got *Session) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("Len: want %d, got %d", want.Len(), got.Len())
	}
	if !want.Schema().Equal(got.Schema()) {
		t.Fatal("schema mismatch")
	}
	wd, gd := want.Data(), got.Data()
	for tid := 0; tid < want.Len(); tid++ {
		if !bytes.Equal(relation.EncodeTuple(nil, wd.Tuple(tid)), relation.EncodeTuple(nil, gd.Tuple(tid))) {
			t.Fatalf("row %d: want %v, got %v", tid, wd.Tuple(tid), gd.Tuple(tid))
		}
	}
	if w, g := want.Constraints().String(), got.Constraints().String(); w != g {
		t.Fatalf("constraints: want %q, got %q", w, g)
	}
	if w, g := want.DCs().String(), got.DCs().String(); w != g {
		t.Fatalf("DCs: want %q, got %q", w, g)
	}
	if w, g := want.ConfirmedCells(), got.ConfirmedCells(); !reflect.DeepEqual(w, g) {
		t.Fatalf("confirmed: want %v, got %v", w, g)
	}
}

// mutateMixed drives every journaled mutation path once: register two
// datasets, install constraints and DCs, append a dirty delta (the
// journal must record the POST-repair rows), repair-accept, edit,
// confirm, and drop one dataset. Returns the surviving dataset names.
func mutateMixed(t *testing.T, e *Engine) []string {
	t.Helper()
	// Dirty CFD workload with repairs, edits, confirmations.
	if _, err := e.Register("cust", dirtyCust(t, 300, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InstallConstraints("cust", datagen.CustConstraints().String()); err != nil {
		t.Fatal(err)
	}
	s, _ := e.Get("cust")
	if _, err := s.RepairAccept(); err != nil {
		t.Fatal(err)
	}
	delta := dirtyCust(t, 40, 23)
	tuples := make([]relation.Tuple, delta.Len())
	for i := range tuples {
		tuples[i] = delta.Tuple(i).Clone()
	}
	if _, err := s.Append(tuples); err != nil {
		t.Fatal(err)
	}
	if err := s.Edit(5, 3, relation.String("edited")); err != nil {
		t.Fatal(err)
	}
	if err := s.Confirm(7, 2); err != nil {
		t.Fatal(err)
	}

	// Mixed-kind DC workload (Emp has int and float columns).
	if _, err := e.Register("emp", datagen.Emp(200, 10, 31)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InstallDCs("emp", datagen.EmpDCText()); err != nil {
		t.Fatal(err)
	}

	// A dataset that is registered then dropped must not resurrect.
	if _, err := e.Register("doomed", datagen.Cust(20, 7)); err != nil {
		t.Fatal(err)
	}
	if !e.Drop("doomed") {
		t.Fatal("drop failed")
	}
	return []string{"cust", "emp"}
}

// TestEngineRecoveryRoundTrip is the tentpole property: after a mixed
// mutation history, recovery from the WAL alone (no snapshot) rebuilds
// cell-identical state — and does so with ZERO detection or repair
// work (the journal records effects, so replay is raw insertion).
func TestEngineRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1, m1, _, _ := openDurable(t, dir)
	names := mutateMixed(t, e1)
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, m2, snaps, replayed := openDurable(t, dir)
	defer m2.Close()
	if snaps != 0 {
		t.Fatalf("unexpected snapshots: %d", snaps)
	}
	if replayed == 0 {
		t.Fatal("nothing replayed")
	}
	if got := e2.List(); !reflect.DeepEqual(got, names) {
		t.Fatalf("List = %v, want %v", got, names)
	}
	for _, name := range names {
		w, _ := e1.Get(name)
		g, ok := e2.Get(name)
		if !ok {
			t.Fatalf("dataset %q lost", name)
		}
		assertSameDataset(t, w, g)
		if stats := g.IndexStats(); stats.Misses != 0 || stats.Refines != 0 {
			t.Fatalf("%q: replay did detection work: %+v", name, stats)
		}
	}
}

// TestEngineRecoveryFromCheckpoint covers the snapshot + tail-replay
// path: checkpoint mid-history, mutate more, recover — the state must
// match, the checkpoint must be used, and compaction must have
// shrunk the log to the post-checkpoint tail.
func TestEngineRecoveryFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e1, m1, _, _ := openDurable(t, dir)
	names := mutateMixed(t, e1)
	preSize := m1.LogSize()
	if err := m1.Checkpoint(e1); err != nil {
		t.Fatal(err)
	}
	if m1.LogSize() >= preSize {
		t.Fatalf("checkpoint did not compact: %d -> %d", preSize, m1.LogSize())
	}
	// Post-checkpoint tail: one more append on cust.
	s, _ := e1.Get("cust")
	delta := datagen.Cust(10, 41)
	tuples := make([]relation.Tuple, delta.Len())
	for i := range tuples {
		tuples[i] = delta.Tuple(i).Clone()
	}
	if _, err := s.Append(tuples); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, m2, snaps, _ := openDurable(t, dir)
	defer m2.Close()
	if snaps != len(names) {
		t.Fatalf("snapshots used: %d, want %d", snaps, len(names))
	}
	for _, name := range names {
		w, _ := e1.Get(name)
		g, ok := e2.Get(name)
		if !ok {
			t.Fatalf("dataset %q lost", name)
		}
		assertSameDataset(t, w, g)
	}
	// Fresh writes after recovery must not collide with checkpointed
	// seqs: another append, another recovery.
	s2, _ := e2.Get("cust")
	if _, err := s2.Append(tuples[:3]); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, m3, _, _ := openDurable(t, dir)
	defer m3.Close()
	g3, _ := e3.Get("cust")
	w2, _ := e2.Get("cust")
	assertSameDataset(t, w2, g3)
}

// TestEngineRecoveryTornTail pins the crash-mid-write contract: a
// torn final record (the crash cut an append mid-frame) is silently
// dropped, recovery lands on the previous record's state, and the log
// accepts new writes cleanly afterwards.
func TestEngineRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	e1, m1, _, _ := openDurable(t, dir)
	if _, err := e1.Register("cust", datagen.Cust(100, 3)); err != nil {
		t.Fatal(err)
	}
	s, _ := e1.Get("cust")
	appendClean := func(n int, seed int64) {
		delta := datagen.Cust(n, seed)
		tuples := make([]relation.Tuple, delta.Len())
		for i := range tuples {
			tuples[i] = delta.Tuple(i).Clone()
		}
		if _, err := s.Append(tuples); err != nil {
			t.Fatal(err)
		}
	}
	appendClean(20, 11)
	lenAfterA := s.Len()
	appendClean(15, 13) // the record the "crash" tears
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	e2, m2, _, _ := openDurable(t, dir)
	defer m2.Close()
	g, ok := e2.Get("cust")
	if !ok {
		t.Fatal("dataset lost")
	}
	if g.Len() != lenAfterA {
		t.Fatalf("recovered Len = %d, want %d (torn append dropped whole)", g.Len(), lenAfterA)
	}
	wd, gd := s.Data(), g.Data()
	for tid := 0; tid < lenAfterA; tid++ {
		if !bytes.Equal(relation.EncodeTuple(nil, wd.Tuple(tid)), relation.EncodeTuple(nil, gd.Tuple(tid))) {
			t.Fatalf("row %d diverged", tid)
		}
	}
	// The truncated tail must not poison new appends.
	s2, _ := e2.Get("cust")
	delta := datagen.Cust(5, 17)
	tuples := make([]relation.Tuple, delta.Len())
	for i := range tuples {
		tuples[i] = delta.Tuple(i).Clone()
	}
	if _, err := s2.Append(tuples); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, m3, _, _ := openDurable(t, dir)
	defer m3.Close()
	g3, _ := e3.Get("cust")
	if g3.Len() != lenAfterA+5 {
		t.Fatalf("post-torn append lost: Len = %d", g3.Len())
	}
}

// TestDropRefusesStaleHandleMutations pins the drop/append WAL
// ordering: a session handle obtained before Drop must refuse every
// mutation afterwards, so no record for the dataset can follow its
// drop record in the log — replay applies records in order and a
// post-drop append would hit an unknown dataset and fail recovery.
func TestDropRefusesStaleHandleMutations(t *testing.T) {
	dir := t.TempDir()
	e1, m1, _, _ := openDurable(t, dir)
	if _, err := e1.Register("ds", datagen.Cust(30, 3)); err != nil {
		t.Fatal(err)
	}
	s, _ := e1.Get("ds")
	if !e1.Drop("ds") {
		t.Fatal("drop failed")
	}
	delta := datagen.Cust(5, 7)
	tuples := make([]relation.Tuple, delta.Len())
	for i := range tuples {
		tuples[i] = delta.Tuple(i).Clone()
	}
	if _, err := s.Append(tuples); err == nil {
		t.Fatal("Append through a stale handle succeeded after Drop")
	}
	if err := s.Edit(0, 0, relation.String("x")); err == nil {
		t.Fatal("Edit through a stale handle succeeded after Drop")
	}
	if err := s.Confirm(0, 0); err == nil {
		t.Fatal("Confirm through a stale handle succeeded after Drop")
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// The log must replay cleanly: nothing after the drop record.
	e2, m2, _, _ := openDurable(t, dir)
	defer m2.Close()
	if _, ok := e2.Get("ds"); ok {
		t.Fatal("dropped dataset resurrected")
	}
}

// dropDuringCheckpoint simulates a Drop landing between a checkpoint's
// dataset capture and its compaction — the window where the snapshot
// file is freshly written but the drop record is already in the log.
// Compaction must NOT sweep the drop record while the snapshot file
// exists, or recovery would load the snapshot and resurrect a dataset
// whose drop was acked.
type dropDuringCheckpoint struct {
	*Engine
	target string
}

func (d *dropDuringCheckpoint) CaptureDataset(name string, seq func() uint64) (*wal.DatasetSnapshot, bool) {
	snap, ok := d.Engine.CaptureDataset(name, seq)
	if ok && name == d.target {
		d.target = ""
		if !d.Engine.Drop(name) {
			return snap, ok // journal failure surfaces as resurrection below
		}
	}
	return snap, ok
}

func TestDropDuringCheckpointNotResurrected(t *testing.T) {
	dir := t.TempDir()
	e1, m1, _, _ := openDurable(t, dir)
	if _, err := e1.Register("ds", datagen.Cust(30, 3)); err != nil {
		t.Fatal(err)
	}
	if err := m1.Checkpoint(&dropDuringCheckpoint{Engine: e1, target: "ds"}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	e2, m2, _, _ := openDurable(t, dir)
	defer m2.Close()
	if _, ok := e2.Get("ds"); ok {
		t.Fatal("dataset dropped mid-checkpoint resurrected by recovery")
	}
}

// TestCheckpointAfterDropConverges drives the full drop-sweep sequence
// across checkpoints: snapshot, drop, then repeated checkpoints. Each
// intermediate on-disk state must recover to "dataset absent", and the
// sweep must eventually remove both the snapshot file and the drop
// record.
func TestCheckpointAfterDropConverges(t *testing.T) {
	dir := t.TempDir()
	e1, m1, _, _ := openDurable(t, dir)
	if _, err := e1.Register("ds", datagen.Cust(30, 3)); err != nil {
		t.Fatal(err)
	}
	if err := m1.Checkpoint(e1); err != nil {
		t.Fatal(err)
	}
	if !e1.Drop("ds") {
		t.Fatal("drop failed")
	}
	for i := 0; i < 3; i++ {
		if err := m1.Checkpoint(e1); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	if size := m1.LogSize(); size != 0 {
		t.Fatalf("drop record not swept: log size %d", size)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap")); len(snaps) != 0 {
		t.Fatalf("snapshot files not swept: %v", snaps)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	e2, m2, _, _ := openDurable(t, dir)
	defer m2.Close()
	if _, ok := e2.Get("ds"); ok {
		t.Fatal("dropped dataset resurrected")
	}
}

// TestRecoverSkipsOrphanRecords pins checkpoint-crash tolerance: tail
// records whose dataset has neither a snapshot nor a register record
// (its history was partially compacted around a drop before a crash)
// are skipped, not fatal — a daemon must never be unable to start
// because of dead records for a dropped dataset.
func TestRecoverSkipsOrphanRecords(t *testing.T) {
	dir := t.TempDir()
	m, err := wal.OpenManager(dir, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	// An orphan append, cell-write and lone drop, as a crashed
	// checkpoint can leave behind; then a legitimate dataset.
	if err := m.LogAppend("ghost", []relation.Tuple{{relation.String("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := m.LogCells("ghost", []wal.CellWrite{{TID: 0, Attr: 0, Value: relation.String("y")}}, false); err != nil {
		t.Fatal(err)
	}
	if err := m.LogDrop("ghost"); err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	if _, _, err := m.Recover(e); err != nil {
		t.Fatalf("recover with orphan records: %v", err)
	}
	e.SetJournal(m)
	if _, err := e.Register("live", datagen.Cust(10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	e2, m2, _, _ := openDurable(t, dir)
	defer m2.Close()
	if _, ok := e2.Get("ghost"); ok {
		t.Fatal("orphan records materialized a dataset")
	}
	if _, ok := e2.Get("live"); !ok {
		t.Fatal("legitimate dataset lost")
	}
}

// TestDropNotResurrected pins the journal-first drop ordering end to
// end: drop, crash, recover — gone; and the registered-then-dropped
// name is reusable after recovery.
func TestDropNotResurrected(t *testing.T) {
	dir := t.TempDir()
	e1, m1, _, _ := openDurable(t, dir)
	if _, err := e1.Register("ds", datagen.Cust(30, 3)); err != nil {
		t.Fatal(err)
	}
	if err := m1.Checkpoint(e1); err != nil {
		t.Fatal(err)
	}
	if !e1.Drop("ds") {
		t.Fatal("drop failed")
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	e2, m2, _, _ := openDurable(t, dir)
	defer m2.Close()
	if _, ok := e2.Get("ds"); ok {
		t.Fatal("dropped dataset resurrected by recovery")
	}
	if _, err := e2.Register("ds", datagen.Cust(10, 5)); err != nil {
		t.Fatalf("name not reusable after recovered drop: %v", err)
	}
}
