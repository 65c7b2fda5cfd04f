package engine

import (
	"reflect"
	"sync"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/discovery"
	"semandaq/internal/relation"
)

// chainedCustConstraints returns a CFD set where one rule's RHS feeds
// another rule's LHS: psi1 repairs CT from the (CC, AC) region tableau,
// and psi2 reads CT in its LHS — so a repair Set on CT lands in the
// patch journal of a column a cached detection partition is keyed on.
// Both rules hold on clean datagen.Cust data (zip prefixes are unique
// per region, so (CT, ZIP) determines STR globally). This is the shape
// the per-cell patch pipeline exists for: without it, every dirty
// append would invalidate the psi2 partition wholesale.
func chainedCustConstraints(t testing.TB) *cfd.Set {
	t.Helper()
	set, err := cfd.ParseSet(`
cfd psi1: cust([CC, AC] -> [CT]) { ('44', '131' || 'edi'), ('44', '141' || 'gla'), ('44', '20' || 'ldn'), ('01', '908' || 'mh'), ('01', '212' || 'nyc'), ('01', '650' || 'mtv') }
cfd psi2: cust([CT, ZIP] -> [STR])
`, datagen.CustSchema())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// corruptCT clones base rows into a delta batch and corrupts the CT
// cell of every third tuple — dirty appends psi1 repairs by writing CT,
// which is exactly a patch into psi2's cached LHS partition.
func corruptCT(base *relation.Relation, round, count int) []relation.Tuple {
	ct := base.Schema().MustIndex("CT")
	tuples := make([]relation.Tuple, count)
	for i := range tuples {
		tuples[i] = base.Tuple((round*count + i*53) % base.Len()).Clone()
		if i%3 == 0 {
			tuples[i][ct] = relation.String("zzz-corrupt")
		}
	}
	return tuples
}

// TestAppendRepairDetectPatchesNotRebuilds is the engine-level
// acceptance criterion of per-cell PLI patching: on a warm session with
// CHAINED constraints, a dirty append → incremental repair → detect
// cycle performs ZERO partition rebuilds — the repair's CT writes are
// drained into the cached (CT, ZIP) partition as journaled patches
// (Patches grows) while Misses and Refines stay frozen — and the
// patched-partition detection result equals a cold run.
func TestAppendRepairDetectPatchesNotRebuilds(t *testing.T) {
	base := datagen.Cust(10_000, 61)
	s, err := NewSession("patch-warm", base, chainedCustConstraints(t))
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

	const rounds, delta = 3, 90
	for round := 0; round < rounds; round++ {
		res, err := s.Append(corruptCT(base, round, delta))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Changes) == 0 {
			t.Fatalf("round %d: corrupted delta repaired no cells", round)
		}
		for _, ch := range res.Changes {
			if ch.TID < base.Len() {
				t.Fatalf("round %d: repair modified base tuple %d", round, ch.TID)
			}
		}
		vs, err := vsOf(s.Detect())
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 0 {
			t.Fatalf("round %d: %d violations after repaired dirty append", round, len(vs))
		}
	}
	if s.Len() != base.Len()+rounds*delta {
		t.Fatalf("session length = %d", s.Len())
	}

	after := s.IndexStats()
	if after.Misses != warm.Misses || after.Refines != warm.Refines {
		t.Fatalf("dirty append+repair+detect rebuilt partitions: %+v -> %+v", warm, after)
	}
	if after.Patches == 0 {
		t.Fatalf("repair writes drained without patches being counted: %+v", after)
	}
	if after.Advances == 0 {
		t.Fatalf("appends absorbed without advances being counted: %+v", after)
	}

	// The patched-partition detection result equals a cold run.
	warmVs, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	coldVs, err := cfd.NewDetector(s.Constraints()).Detect(s.Data())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmVs, coldVs) {
		t.Fatal("patched-index detection diverges from cold detection")
	}
}

// assertDeltaClean asserts what Append carries a cached violation list
// on without re-checking it: IncDetect over the rows appended since the
// relation had `from` of them finds nothing, for every CFD. It reads a
// snapshot and fresh partitions, so the session's cache counters, which
// the append tests compare, do not move.
func assertDeltaClean(t *testing.T, s *Session, from int) {
	t.Helper()
	data := s.Snapshot()
	delta := make([]int, 0, data.Len()-from)
	for tid := from; tid < data.Len(); tid++ {
		delta = append(delta, tid)
	}
	for _, c := range s.Constraints().All() {
		if vs := cfd.IncDetect(data, c, relation.BuildPLI(data, c.LHS()), delta); len(vs) > 0 {
			t.Fatalf("%d violations of %s involve the %d appended rows: %v", len(vs), c.Name(), len(delta), vs[0])
		}
	}
}

// TestAppendKeepsNonEmptyViolationCache extends the incremental
// violation-maintenance property to a DIRTY base: a session whose
// cached violation list is non-empty (a planted base violation the
// repair never touches) keeps that list valid across appends — the
// appended tuples are repaired onto the base without creating or fixing
// base-only violations, so Violations() after Append answers from the
// cache with zero detection work, and the carried-over list equals a
// from-scratch detection of the grown relation.
func TestAppendKeepsNonEmptyViolationCache(t *testing.T) {
	base := datagen.Cust(3_000, 71)
	ct := base.Schema().MustIndex("CT")
	// Plant one base violation: a CT outside its region tableau row.
	base.Set(5, ct, relation.String("zzz-planted"))
	s, err := NewSession("dirty-base", base, chainedCustConstraints(t))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := vsOf(s.Detect()) // primes the cache; the planted violation is in it
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("planted base violation not detected")
	}
	// The list's generation — what lets the server keep serving the
	// bytes it encoded — survives appends and a detect that finds the
	// same list again, with the very slice still shared.
	shared, gen, err := genOf(s.Violations())
	if err != nil || gen == 0 || !reflect.DeepEqual(shared, vs) {
		t.Fatalf("Violations: generation %d, %d violations, %v", gen, len(shared), err)
	}
	sameList := func(when string) {
		t.Helper()
		again, g, err := genOf(s.Violations())
		if err != nil || g != gen || &again[0] != &shared[0] {
			t.Fatalf("%s: generation %d -> %d (same slice: %v), %v", when, gen, g, &again[0] == &shared[0], err)
		}
	}

	for round := 0; round < 3; round++ {
		from := s.Data().Len()
		if _, err := s.Append(corruptCT(base, round, 40)); err != nil {
			t.Fatal(err)
		}
		assertDeltaClean(t, s, from)
		after := s.IndexStats()
		got, err := vsOf(s.Violations())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, vs) {
			t.Fatalf("round %d: cached violations changed across append: %d -> %d", round, len(vs), len(got))
		}
		if now := s.IndexStats(); now != after {
			t.Fatalf("round %d: Violations() re-detected after append: %+v -> %+v", round, after, now)
		}
		sameList("after an append")
		if _, err := vsOf(s.Detect()); err != nil {
			t.Fatal(err)
		}
		sameList("after a detect that changed nothing")
	}

	// Ground truth: the carried-over list equals cold detection of the
	// grown relation.
	cold, err := cfd.NewDetector(s.Constraints()).Detect(s.Data())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, cold) {
		t.Fatalf("carried-over violations diverge from cold detection: %d vs %d", len(vs), len(cold))
	}

	// An Edit still invalidates the list.
	before := s.IndexStats()
	if err := s.Edit(9, ct, relation.String("zzz-edited")); err != nil {
		t.Fatal(err)
	}
	if _, err := vsOf(s.Violations()); err != nil {
		t.Fatal(err)
	}
	if got := s.IndexStats(); got == before {
		t.Fatal("Violations() after an Edit did no detection work")
	}
	if _, g, _ := genOf(s.Violations()); g <= gen {
		t.Fatalf("generation %d -> %d across an Edit: it must move", gen, g)
	}
}

// TestConcurrentDirtyAppendDetectDiscover is the -race companion of the
// patch pipeline (run via `make race-cache`): dirty appends — whose
// repairs Set delta cells and therefore drain patches into the shared
// cached partitions — race shared-lock detection and discovery on one
// session. The per-entry patch/advance serialization plus the
// copy-on-write compaction of still-shared dirty entries must keep
// every reader coherent; this is the same shape as the PR 6
// compaction race, with patches instead of appends as the mutator.
func TestConcurrentDirtyAppendDetectDiscover(t *testing.T) {
	base := datagen.Cust(2_000, 83)
	s, err := NewSession("patch-conc", base, chainedCustConstraints(t))
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
				if _, err := s.Append(corruptCT(base, w*rounds+i, 20)); err != nil {
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
		t.Fatalf("%d violations after repaired concurrent dirty appends", len(vs))
	}
	if after := s.IndexStats(); after.Patches == 0 {
		t.Fatalf("concurrent dirty appends never patched a partition: %+v", after)
	}
}
