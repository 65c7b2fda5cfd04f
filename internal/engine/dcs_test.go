package engine

import (
	"fmt"
	"sync"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
	"semandaq/internal/relation"
)

func TestSessionDCLifecycle(t *testing.T) {
	eng := New(Options{})
	data := datagen.Emp(600, 8, 11)
	if _, err := eng.Register("emp", data); err != nil {
		t.Fatal(err)
	}

	set, err := eng.InstallDCs("emp", datagen.EmpDCText())
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("installed %d DCs, want 1", set.Len())
	}
	// Compiled sets are cached by (schema, text) and shared.
	again, err := eng.CompileDCs(datagen.EmpSchema(), datagen.EmpDCText())
	if err != nil {
		t.Fatal(err)
	}
	if again != set {
		t.Error("CompileDCs should return the cached set instance")
	}

	sess, _ := eng.Get("emp")
	reports := reportsOf(sess.DetectDCs(0))
	if len(reports) != 1 || reports[0].Name != "pay" {
		t.Fatalf("reports = %+v", reports)
	}
	vios := reports[0].Violations
	if len(vios) == 0 {
		t.Fatal("planted pay inversions not detected")
	}
	// Detection through the session must equal a cold standalone run.
	d, _ := set.Get("pay")
	want := dc.DetectNaive(sess.Data(), d)
	if len(vios) != len(want) {
		t.Fatalf("session detection found %d violations, naive %d", len(vios), len(want))
	}
	if lim := reportsOf(sess.DetectDCs(3)); len(lim[0].Violations) != 3 || !lim[0].Truncated {
		t.Fatalf("limit=3 gave %+v", lim[0])
	}

	weaks, relaxVios, err := sess.RelaxDC("pay", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(relaxVios) != len(vios) {
		t.Fatalf("RelaxDC saw %d violations, detect saw %d", len(relaxVios), len(vios))
	}
	consistent := false
	for _, w := range weaks {
		if w.Consistent {
			consistent = true
		}
	}
	if !consistent {
		t.Fatalf("no consistent weakening among %d proposals", len(weaks))
	}
	if _, _, err := sess.RelaxDC("nope", 0); err == nil {
		t.Error("RelaxDC of unknown DC should fail")
	}

	// Schema mismatches are rejected at install.
	if err := sess.SetDCs(dc.NewSet(datagen.CustSchema())); err == nil {
		t.Error("SetDCs with foreign schema should fail")
	}
	if _, err := eng.InstallDCs("nope", datagen.EmpDCText()); err == nil {
		t.Error("InstallDCs on unknown dataset should fail")
	}
}

// TestConcurrentDCDetectAppendDiscover races DC detection against
// appends, CFD detection and discovery on ONE shared session index
// cache — the -race companion of TestConcurrentAppendDetectDiscover
// for the DC path (make race-cache runs this with -race -count=2).
func TestConcurrentDCDetectAppendDiscover(t *testing.T) {
	base := datagen.Emp(1_500, 0, 31)
	s, err := NewSession("dcrace", base, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := dc.ParseSet(datagen.EmpDCText(), base.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetDCs(set); err != nil {
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
				tuples := make([]relation.Tuple, 15)
				for j := range tuples {
					// Clones of clean tuples keep the DC satisfied.
					tuples[j] = base.Tuple((w*331 + i*77 + j) % base.Len()).Clone()
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
				for _, rep := range reportsOf(s.DetectDCs(0)) {
					if len(rep.Violations) != 0 {
						errCh <- errFromViolations(rep.Name, len(rep.Violations))
						return
					}
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

	if s.Len() != base.Len()+2*rounds*15 {
		t.Fatalf("session length = %d after concurrent appends", s.Len())
	}
	// The final state must still be clean and byte-identical to naive.
	for _, rep := range reportsOf(s.DetectDCs(0)) {
		if len(rep.Violations) != 0 {
			t.Fatalf("%s: %d violations after clean concurrent appends", rep.Name, len(rep.Violations))
		}
	}
}

func errFromViolations(name string, n int) error {
	return fmt.Errorf("%s: %d violations during concurrent clean appends", name, n)
}
