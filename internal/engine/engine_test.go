package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/discovery"
	"semandaq/internal/noise"
	"semandaq/internal/relation"
)

// dirtyCust builds the benchmark workload: generated customers with
// noise planted on the repairable attributes.
func dirtyCust(t testing.TB, n int, seed int64) *relation.Relation {
	t.Helper()
	clean := datagen.Cust(n, seed)
	schema := clean.Schema()
	dirty, _ := noise.Dirty(clean, noise.Options{
		Rate:  0.05,
		Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
		Seed:  seed + 1,
	})
	return dirty
}

// vsOf, genOf and reportsOf unpack results the way the tests read them.
func vsOf(res *DetectResult, err error) ([]cfd.Violation, error) {
	vs, _, err := genOf(res, err)
	return vs, err
}

func genOf(res *DetectResult, err error) ([]cfd.Violation, uint64, error) {
	if err != nil {
		return nil, 0, err
	}
	return res.Violations, res.Gen, nil
}

func reportsOf(res *DCResult, _ error) []DCReport { return res.Reports }

func newSession(t testing.TB, n int, seed int64) *Session {
	t.Helper()
	s, err := NewSession("test", dirtyCust(t, n, seed), datagen.CustConstraints())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistryLifecycle(t *testing.T) {
	e := New(Options{})
	if _, err := e.Register("", datagen.Cust(5, 1)); err == nil {
		t.Error("empty name should fail")
	}
	s, err := e.Register("a", datagen.Cust(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("a", datagen.Cust(5, 1)); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := e.Register("b", datagen.Cust(5, 1)); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Get("a"); got != s {
		t.Error("Get returned a different session")
	}
	if names := e.List(); !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Errorf("List = %v", names)
	}
	if !e.Drop("a") || e.Drop("a") {
		t.Error("Drop should succeed once")
	}
	if _, ok := e.Get("a"); ok {
		t.Error("dropped dataset still resolvable")
	}
}

func TestRegisterClonesData(t *testing.T) {
	e := New(Options{})
	data := datagen.Cust(5, 1)
	s, err := e.Register("a", data)
	if err != nil {
		t.Fatal(err)
	}
	data.Set(0, 0, relation.String("mutated"))
	if s.Data().Get(0, 0).Str() == "mutated" {
		t.Error("session data aliases the caller's relation")
	}
}

func TestCompileConstraintsCached(t *testing.T) {
	e := New(Options{})
	schema := datagen.CustSchema()
	text := "cfd phi1: cust([CC='44', ZIP] -> [STR])"
	a, err := e.CompileConstraints(schema, text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CompileConstraints(schema, text)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (schema, text) should return the cached set instance")
	}
	c, err := e.CompileConstraints(schema, text+" ") // different text, same meaning
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different text must not collide in the cache")
	}
	if _, err := e.CompileConstraints(schema, "not a cfd"); err == nil {
		t.Error("parse error should surface")
	}
}

func TestInstallConstraints(t *testing.T) {
	e := New(Options{})
	if _, err := e.Register("cust", dirtyCust(t, 200, 3)); err != nil {
		t.Fatal(err)
	}
	set, err := e.InstallConstraints("cust", "cfd phi1: cust([CC='44', ZIP] -> [STR])")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("installed %d CFDs", set.Len())
	}
	s, _ := e.Get("cust")
	if s.Constraints() != set {
		t.Error("session does not hold the installed set")
	}
	if _, err := e.InstallConstraints("nope", "x"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

// TestParallelDetectionDeterminism is the acceptance check at session
// level: the worker-pool detector and the serial detector return the
// same violations in the same order, and rendering them is
// byte-identical.
func TestParallelDetectionDeterminism(t *testing.T) {
	s := newSession(t, 3_000, 5)
	par, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	ser, err := cfd.NewDetector(s.Constraints()).Detect(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(par) == 0 {
		t.Fatal("noisy fixture should violate the planted constraints")
	}
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("parallel and serial detection diverge")
	}
	if fmt.Sprint(par) != fmt.Sprint(ser) {
		t.Fatal("rendered violation sets are not byte-identical")
	}
}

func TestViolationsCache(t *testing.T) {
	s := newSession(t, 500, 7)
	vs, err := vsOf(s.Violations())
	if err != nil {
		t.Fatal(err)
	}
	again, err := vsOf(s.Violations())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, again) {
		t.Error("cached violations diverge from computed ones")
	}
	// A mutation invalidates the cache; swapping in a one-CFD subset
	// must change what Violations returns.
	sub, err := cfd.ParseSet("cfd phi1: cust([CC='44', ZIP] -> [STR])", s.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetConstraints(sub); err != nil {
		t.Fatal(err)
	}
	after, err := vsOf(s.Violations())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range after {
		if v.CFD.Name() != "phi1" {
			t.Fatalf("violation of %s after installing the phi1-only set", v.CFD.Name())
		}
	}
	if reflect.DeepEqual(vs, after) {
		t.Error("violations unchanged after swapping the constraint set")
	}
}

func TestRepairAcceptCycle(t *testing.T) {
	s := newSession(t, 1_000, 9)
	if s.Candidate() != nil {
		t.Fatal("candidate before Repair")
	}
	if err := s.Accept(); err == nil {
		t.Fatal("Accept without candidate should fail")
	}
	res, err := s.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) == 0 {
		t.Fatal("repair of noisy data should change cells")
	}
	if s.Candidate() != res {
		t.Fatal("candidate not cached")
	}
	if err := s.Accept(); err != nil {
		t.Fatal(err)
	}
	vs, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("accepted repair leaves %d violations", len(vs))
	}
	if s.Candidate() != nil {
		t.Fatal("candidate should be cleared by Accept")
	}
}

func TestRepairAcceptAtomic(t *testing.T) {
	s := newSession(t, 500, 25)
	res, err := s.RepairAccept()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) == 0 {
		t.Fatal("atomic repair of noisy data should change cells")
	}
	if s.Candidate() != nil {
		t.Fatal("RepairAccept should not leave a dangling candidate")
	}
	vs, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("atomic repair leaves %d violations", len(vs))
	}
}

func TestEditConfirmWeights(t *testing.T) {
	s := newSession(t, 300, 11)
	if err := s.Edit(-1, 0, relation.String("x")); err == nil {
		t.Error("negative TID should fail")
	}
	if err := s.Confirm(0, 99); err == nil {
		t.Error("attr out of range should fail")
	}
	if err := s.Edit(0, 1, relation.String("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Confirm(2, 3); err != nil {
		t.Fatal(err)
	}
	cells := s.ConfirmedCells()
	if !reflect.DeepEqual(cells, [][2]int{{0, 1}, {2, 3}}) {
		t.Errorf("ConfirmedCells = %v", cells)
	}
}

func TestAppendIncremental(t *testing.T) {
	base := datagen.Cust(2_000, 13)
	s, err := NewSession("inc", base, datagen.CustConstraints())
	if err != nil {
		t.Fatal(err)
	}
	schema := base.Schema()
	deltaClean := datagen.Cust(50, 17)
	deltaDirty, _ := noise.Dirty(deltaClean, noise.Options{
		Rate:  0.3,
		Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
		Seed:  19,
	})
	delta := make([]relation.Tuple, deltaDirty.Len())
	for i := range delta {
		delta[i] = deltaDirty.Tuple(i).Clone()
	}
	res, err := s.Append(delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range res.Changes {
		if ch.TID < base.Len() {
			t.Fatalf("incremental repair modified base tuple %d", ch.TID)
		}
	}
	if s.Len() != base.Len()+len(delta) {
		t.Fatalf("Len = %d after append", s.Len())
	}
	vs, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("incremental repair leaves %d violations", len(vs))
	}
}

// TestSessionAppendAdvancesNotRebuilds is the acceptance criterion of
// the incremental-PLI work, at E13 scale: on a warm 100k-tuple session,
// appending a 100-row delta and re-detecting performs ZERO partition
// rebuilds — Misses and Refines freeze after warm-up while Advances
// grows with every append batch. The appended tuples are clones of base
// rows (consistent by construction), so the repair writes nothing and
// no column version moves.
func TestSessionAppendAdvancesNotRebuilds(t *testing.T) {
	base := datagen.Cust(100_000, 31)
	s, err := NewSession("append-warm", base, datagen.CustConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
	warm := s.IndexStats()
	if warm.Misses == 0 {
		t.Fatal("warm-up built nothing?")
	}

	const rounds, delta = 3, 100
	for round := 0; round < rounds; round++ {
		tuples := make([]relation.Tuple, delta)
		for i := range tuples {
			tuples[i] = base.Tuple((round*delta + i*37) % base.Len()).Clone()
		}
		res, err := s.Append(tuples)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Changes) != 0 {
			t.Fatalf("round %d: consistent delta repaired %d cells", round, len(res.Changes))
		}
		vs, err := vsOf(s.Detect())
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 0 {
			t.Fatalf("round %d: %d violations after clean append", round, len(vs))
		}
	}
	if s.Len() != base.Len()+rounds*delta {
		t.Fatalf("session length = %d", s.Len())
	}

	after := s.IndexStats()
	if after.Misses != warm.Misses || after.Refines != warm.Refines {
		t.Fatalf("append+detect rebuilt partitions: %+v -> %+v", warm, after)
	}
	if after.Advances == 0 {
		t.Fatalf("appends absorbed without advances being counted: %+v", after)
	}

	// The advanced-partition detection result equals a cold run.
	warmVs, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	coldVs, err := cfd.NewDetector(s.Constraints()).Detect(s.Data())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmVs, coldVs) {
		t.Fatal("advanced-index detection diverges from cold detection")
	}
}

// TestAppendKeepsViolationCacheOnCleanBase is the incremental
// violation-maintenance acceptance check: once a session has a validly
// cached EMPTY violation list (a clean base), Session.Append keeps the
// cache valid — IncInPlace repairs the delta onto the clean base, so
// the relation stays violation-free and the next Violations() answers
// from the cache with ZERO detection work, asserted by the PLI cache
// counters not moving at all. Dirty deltas are repaired clean and keep
// the property; a cell Edit still invalidates.
func TestAppendKeepsViolationCacheOnCleanBase(t *testing.T) {
	base := datagen.Cust(3_000, 43)
	s, err := NewSession("clean-append", base, datagen.CustConstraints())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := vsOf(s.Violations()) // primes the cache; clean data has none
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("generated base has %d violations", len(vs))
	}

	schema := base.Schema()
	mkClean := func(round int) []relation.Tuple {
		out := make([]relation.Tuple, 25)
		for i := range out {
			out[i] = base.Tuple((round*25 + i*17) % base.Len()).Clone()
		}
		return out
	}
	for round := 0; round < 3; round++ {
		if _, err := s.Append(mkClean(round)); err != nil {
			t.Fatal(err)
		}
		after := s.IndexStats()
		vs, err := vsOf(s.Violations())
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 0 {
			t.Fatalf("round %d: %d violations after clean append", round, len(vs))
		}
		if got := s.IndexStats(); got != after {
			t.Fatalf("round %d: Violations() re-detected after a clean append: %+v -> %+v", round, after, got)
		}
	}

	// A dirty delta is repaired onto the clean base — still violation-
	// free afterwards, still no re-detection on the read path.
	dirtyDelta, _ := noise.Dirty(datagen.Cust(40, 47), noise.Options{
		Rate:  0.4,
		Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
		Seed:  53,
	})
	tuples := make([]relation.Tuple, dirtyDelta.Len())
	for i := range tuples {
		tuples[i] = dirtyDelta.Tuple(i).Clone()
	}
	res, err := s.Append(tuples)
	if err != nil {
		t.Fatal(err)
	}
	after := s.IndexStats()
	vs, err = vsOf(s.Violations())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("%d violations after repaired dirty append (%d changes)", len(vs), len(res.Changes))
	}
	if got := s.IndexStats(); got != after {
		t.Fatalf("Violations() re-detected after a repaired append: %+v -> %+v", after, got)
	}

	// Ground truth: a from-scratch serial detection agrees.
	direct, err := cfd.NewDetector(s.Constraints()).Detect(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != 0 {
		t.Fatalf("cached-clean session actually has %d violations", len(direct))
	}

	// Mutations other than Append still invalidate: an Edit forces the
	// next Violations() to re-detect.
	before := s.IndexStats()
	if err := s.Edit(0, schema.MustIndex("STR"), relation.String("edited-street")); err != nil {
		t.Fatal(err)
	}
	if _, err := vsOf(s.Violations()); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexStats(); got == before {
		t.Fatal("Violations() after an Edit did no detection work")
	}
}

// TestSessionAppendRollback checks the failure path: an arity-bad tuple
// mid-batch rolls the whole append back, leaving length, violations and
// subsequent detection exactly as before.
func TestSessionAppendRollback(t *testing.T) {
	s := newSession(t, 400, 15)
	before, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	n := s.Len()
	good := s.Data().Tuple(0).Clone()
	if _, err := s.Append([]relation.Tuple{good, good[:2]}); err == nil {
		t.Fatal("arity-mismatched append should fail")
	}
	if s.Len() != n {
		t.Fatalf("failed append left %d of %d tuples", s.Len(), n)
	}
	after, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("failed append changed the violation set")
	}
}

// TestConcurrentAppendDetectDiscover hammers one session with the three
// service verbs at once — appends (exclusive), detection and discovery
// (shared) — under -race: the per-entry advance/compact serialization
// in the index cache and the session lock discipline must keep every
// result coherent. Run via `make race-cache` (-race -count=2).
func TestConcurrentAppendDetectDiscover(t *testing.T) {
	base := datagen.Cust(2_000, 27)
	s, err := NewSession("conc", base, datagen.CustConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}

	const rounds = 6
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tuples := make([]relation.Tuple, 20)
				for j := range tuples {
					tuples[j] = base.Tuple((w*531 + i*97 + j) % base.Len()).Clone()
				}
				if _, err := s.Append(tuples); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := vsOf(s.Detect()); err != nil {
					errCh <- err
					return
				}
				if _, err := vsOf(s.Violations()); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/2; i++ {
				if _, err := s.Discover(discovery.Options{MinSupport: 10, MaxLHS: 2}, false); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if s.Len() != base.Len()+2*rounds*20 {
		t.Fatalf("session length = %d after concurrent appends", s.Len())
	}
	vs, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("%d violations after consistent concurrent appends", len(vs))
	}
	if after := s.IndexStats(); after.Advances == 0 {
		t.Fatalf("concurrent appends never advanced a partition: %+v", after)
	}
}

func TestDiscoverInstall(t *testing.T) {
	clean := datagen.Cust(500, 21)
	s, err := NewSession("disc", clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	found, err := s.Discover(discovery.Options{MinSupport: 10, MaxLHS: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("discovery on generated data should find CFDs")
	}
	if s.Constraints().Len() != len(found) {
		t.Fatalf("installed %d of %d discovered CFDs", s.Constraints().Len(), len(found))
	}
	// Discovered constraints hold on the data they were mined from.
	vs, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("discovered set is violated by its own data: %d violations", len(vs))
	}
}

// TestConcurrentDetectWithWriter is the registry/session concurrency
// test the service depends on: N goroutines detect against a shared
// dataset while another goroutine edits cells and a third hammers the
// registry. Run under -race (the Makefile and CI do).
func TestConcurrentDetectWithWriter(t *testing.T) {
	e := New(Options{})
	s, err := e.Register("shared", dirtyCust(t, 1_500, 23))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetConstraints(datagen.CustConstraints()); err != nil {
		t.Fatal(err)
	}
	schema := s.Schema()
	strIdx := schema.MustIndex("STR")

	const readers = 8
	const rounds = 5
	var wg sync.WaitGroup
	errCh := make(chan error, readers+2)

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := vsOf(s.Detect()); err != nil {
					errCh <- err
					return
				}
				if _, err := vsOf(s.Violations()); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// Writer: keeps mutating cells (and confirming them) mid-detection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*10; r++ {
			tid := r % s.Len()
			if err := s.Edit(tid, strIdx, relation.String(fmt.Sprintf("w-%d", r))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Registry churn: register/list/drop unrelated datasets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("tmp-%d", r)
			if _, err := e.Register(name, datagen.Cust(20, int64(r))); err != nil {
				errCh <- err
				return
			}
			e.List()
			e.Drop(name)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The session must still be coherent afterwards.
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
}

func TestNewSessionValidation(t *testing.T) {
	data := datagen.Cust(10, 1)
	other, err := relation.StringSchema("other", "A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession("x", data, cfd.NewSet(other)); err == nil {
		t.Error("schema mismatch should fail")
	}
	bad, err := cfd.ParseSet(`
cfd a: cust([CC] -> [CT='x'])
cfd b: cust([CC] -> [CT='y'])
`, data.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession("x", data, bad); err == nil {
		t.Error("unsatisfiable set should fail")
	}
}

// TestSessionIndexCacheWarm asserts the service-side acceptance
// criterion of the columnar refactor: repeated detection on an
// unmutated session performs zero index rebuilds (the miss counter
// freezes after warm-up), and edits rebuild only the indexes over the
// touched columns.
func TestSessionIndexCacheWarm(t *testing.T) {
	s := newSession(t, 500, 3)
	schema := s.Schema()
	// CustConstraints has four distinct LHS attribute sets:
	// (CC,ZIP), (CC,AC,PN), (CC,AC), (ZIP,CC).
	const lhsSets = 4

	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
	stats := s.IndexStats()
	if stats.Misses != lhsSets {
		t.Fatalf("cold detection built %d indexes, want %d", stats.Misses, lhsSets)
	}
	for i := 0; i < 5; i++ {
		if _, err := vsOf(s.Detect()); err != nil {
			t.Fatal(err)
		}
	}
	stats = s.IndexStats()
	if stats.Misses != lhsSets {
		t.Fatalf("warm detection rebuilt indexes: misses = %d, want %d", stats.Misses, lhsSets)
	}
	if stats.Hits < 5*lhsSets {
		t.Fatalf("warm detection hits = %d, want >= %d", stats.Hits, 5*lhsSets)
	}

	// STR appears in no LHS: editing it must rebuild nothing.
	if err := s.Edit(3, schema.MustIndex("STR"), relation.String("index-cache-test-street")); err != nil {
		t.Fatal(err)
	}
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexStats().Misses; got != lhsSets {
		t.Fatalf("editing a non-key column rebuilt indexes: misses = %d, want %d", got, lhsSets)
	}

	// ZIP appears in the LHS of phi1 and phi4: the journaled cell patch
	// is drained into exactly those two cached PLIs — still no rebuild.
	if err := s.Edit(3, schema.MustIndex("ZIP"), relation.String("ZZ9 9ZZ")); err != nil {
		t.Fatal(err)
	}
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexStats(); got.Misses != lhsSets || got.Patches != 2 {
		t.Fatalf("editing ZIP should patch 2 indexes and rebuild none: %+v", got)
	}

	// The detection result through the warm cache equals a cold run.
	warm, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cfd.NewDetector(s.Constraints()).Detect(s.Data())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm-cache detection diverges from cold detection")
	}
}

// TestSessionDiscoveryCacheWarm asserts the discovery-side acceptance
// criterion of the partition-intersection refactor: discovery runs on
// the session's per-dataset PLI cache, the cold lattice walk counting-
// sorts only single-attribute partitions from scratch (every deeper
// node is an intersection of its level-(k-1) prefix), and a warm
// session re-discovers with zero builds and zero refinements — hit
// counters grow, nothing else moves.
func TestSessionDiscoveryCacheWarm(t *testing.T) {
	s := newSession(t, 400, 5)
	opts := discovery.Options{MinSupport: 5, MaxLHS: 2}

	cold, err := s.Discover(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	stats := s.IndexStats()
	if stats.Misses == 0 || stats.Refines == 0 {
		t.Fatalf("cold discovery should both build (singles) and refine (deeper sets): %+v", stats)
	}
	if arity := uint64(s.Schema().Arity()); stats.Misses > arity {
		t.Fatalf("cold discovery built %d partitions from scratch, want at most arity %d (everything deeper intersects)",
			stats.Misses, arity)
	}

	warm, err := s.Discover(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	after := s.IndexStats()
	if after.Misses != stats.Misses || after.Refines != stats.Refines {
		t.Fatalf("warm discovery re-partitioned: %+v -> %+v", stats, after)
	}
	if after.Hits <= stats.Hits {
		t.Fatalf("warm discovery did not hit the cache: %+v -> %+v", stats, after)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm discovery found %d rules, cold found %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i].String() != cold[i].String() {
			t.Fatalf("warm rule %d = %s, cold = %s", i, warm[i], cold[i])
		}
	}

	// Detection shares the same cache: a detect after discovery reuses
	// the discovery-built LHS partitions. The cache keys by attribute
	// ORDER, and phi4 declares its LHS as (ZIP, CC) — the one unsorted
	// set the sorted lattice walk never visited — so exactly one new
	// partition is allowed.
	preDetect := s.IndexStats()
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
	postDetect := s.IndexStats()
	if postDetect.Misses > preDetect.Misses+1 {
		t.Fatalf("detection after discovery rebuilt partitions: %+v -> %+v", preDetect, postDetect)
	}
}

// TestSessionCacheAcrossAccept checks that committing a repair (which
// swaps the underlying relation) is detected as staleness rather than
// served from the old relation's indexes.
func TestSessionCacheAcrossAccept(t *testing.T) {
	s := newSession(t, 300, 9)
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
	before := s.IndexStats()
	if _, err := s.RepairAccept(); err != nil {
		t.Fatal(err)
	}
	vs, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("repair-accepted data still has %d violations", len(vs))
	}
	after := s.IndexStats()
	if after.Misses <= before.Misses {
		t.Fatalf("detection after Accept reused indexes of the replaced relation")
	}
}
