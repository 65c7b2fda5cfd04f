package engine

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/discovery"
	"semandaq/internal/relation"
)

// countSegFiles returns how many segment files live under dir (recursive).
func countSegFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".seg") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEngineSpillLifecycle walks the full engine-level tier: Register
// under a SpillDir creates a per-dataset directory, a tiny index budget
// turns evictions into segment-file demotions, pages-ins revive them
// without rebuilds, and Drop removes the dataset's directory wholesale.
func TestEngineSpillLifecycle(t *testing.T) {
	if !relation.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	root := t.TempDir()
	e := New(Options{SpillDir: root, IndexBudgetBytes: 1})
	s, err := e.Register("spill-ds", datagen.Cust(2_000, 7))
	if err != nil {
		t.Fatal(err)
	}
	dsDir := s.SpillDir()
	if dsDir == "" || !strings.HasPrefix(dsDir, root) {
		t.Fatalf("session spill dir %q not under %q", dsDir, root)
	}
	if _, err := os.Stat(dsDir); err != nil {
		t.Fatalf("spill dir not created: %v", err)
	}

	if err := s.SetConstraints(datagen.CustConstraints()); err != nil {
		t.Fatal(err)
	}
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
	// Budget 1 byte: every partition built during Detect is demoted as
	// soon as the next one lands, so segment files must exist now.
	st := s.IndexStats()
	if st.Spills == 0 {
		t.Fatalf("no demotions under 1-byte budget: %+v", st)
	}
	if countSegFiles(t, dsDir) == 0 {
		t.Fatal("demotions produced no segment files")
	}

	// A second Detect must page demoted partitions back in, not rebuild.
	if _, err := vsOf(s.Detect()); err != nil {
		t.Fatal(err)
	}
	st2 := s.IndexStats()
	if st2.Misses != st.Misses {
		t.Fatalf("warm detect rebuilt: misses %d -> %d", st.Misses, st2.Misses)
	}
	if st2.Pageins == 0 {
		t.Fatalf("warm detect paged nothing in: %+v", st2)
	}

	// Detection over paged-in partitions must still agree with a cold pass.
	got, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	want, err := cfd.NewDetector(s.Constraints()).Detect(s.Data())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("detect over paged-in partitions diverges: %d vs %d violations", len(got), len(want))
	}

	if !e.Drop("spill-ds") {
		t.Fatal("Drop returned false")
	}
	if _, err := os.Stat(dsDir); !os.IsNotExist(err) {
		t.Fatalf("spill dir survives Drop: %v", err)
	}
}

// refusingJournal fails every registration it is asked to record.
type refusingJournal struct{ Journal }

func (refusingJournal) LogRegister(string, *relation.Schema, []relation.Tuple) error {
	return os.ErrPermission
}

// TestRefusedRegisterLeavesNoSpillDir: a register the engine refuses —
// a duplicate name, or one the journal cannot record — leaves no ds-*
// directory behind, only the registered dataset's.
func TestRefusedRegisterLeavesNoSpillDir(t *testing.T) {
	root := t.TempDir()
	e := New(Options{SpillDir: root})
	dirs := func() int {
		t.Helper()
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	if _, err := e.Register("a", datagen.Cust(50, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Register("a", datagen.Cust(50, 1)); err == nil {
			t.Fatal("duplicate register accepted")
		}
	}
	if n := dirs(); n != 1 {
		t.Fatalf("%d entries under the spill dir after three duplicate registers, want 1", n)
	}
	e.SetJournal(refusingJournal{})
	if _, err := e.Register("b", datagen.Cust(50, 1)); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("register with a refusing journal: %v, want ErrNotDurable", err)
	}
	if n := dirs(); n != 1 {
		t.Fatalf("%d entries under the spill dir after a refused journal write, want 1", n)
	}
	if _, ok := e.Get("b"); ok {
		t.Fatal("a register the journal refused is published")
	}
}

// TestConcurrentSpillDemoteDirtyAppend races budget-driven demotions
// and page-ins against dirty appends whose repairs journal CellPatch
// records into cached partitions, while readers hammer Detect /
// Violations / Discover (Get, GetVia and GetDelta paths). Run under
// -race via `make race-cache`. The hazard under test: a partition is
// demoted to its segment file while its column still has pending
// patches, then paged back in and caught up concurrently with readers.
func TestConcurrentSpillDemoteDirtyAppend(t *testing.T) {
	if !relation.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	base := datagen.Cust(2_000, 89)
	s, err := NewSession("spill-conc", base, chainedCustConstraints(t))
	if err != nil {
		t.Fatal(err)
	}
	store, err := relation.NewSpillStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetSpill(store)
	// Small enough that the working set (chained constraints plus the
	// discovery lattice) cannot stay resident, so demotions and page-ins
	// interleave with the append/patch traffic.
	s.SetIndexBudget(64 << 10)
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
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if s.Len() != base.Len()+2*rounds*20 {
		t.Fatalf("session length = %d after concurrent appends", s.Len())
	}
	got, err := vsOf(s.Detect())
	if err != nil {
		t.Fatal(err)
	}
	want, err := cfd.NewDetector(s.Constraints()).Detect(s.Data())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental state diverges from cold detect: %d vs %d violations", len(got), len(want))
	}
	st := s.IndexStats()
	if st.Spills == 0 {
		t.Fatalf("workload never demoted an entry: %+v", st)
	}
	if st.Pageins == 0 {
		t.Fatalf("workload never paged an entry back in: %+v", st)
	}
}
