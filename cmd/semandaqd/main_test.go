package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"semandaq/internal/engine"
	"semandaq/internal/server"
)

func TestReadMemTotal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meminfo")
	content := "MemTotal:       16384256 kB\nMemFree:         1234 kB\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := readMemTotal(path), int64(16384256)<<10; got != want {
		t.Fatalf("readMemTotal = %d, want %d", got, want)
	}
	if got := readMemTotal(filepath.Join(dir, "missing")); got != 0 {
		t.Fatalf("missing file: got %d, want 0", got)
	}
	if err := os.WriteFile(path, []byte("MemTotal: junk kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readMemTotal(path); got != 0 {
		t.Fatalf("malformed line: got %d, want 0", got)
	}
}

func TestDeriveIndexBudgetNonNegative(t *testing.T) {
	// Whatever the environment (GOMEMLIMIT set or not, /proc readable or
	// not), the derived budget must be usable as-is: never negative, and
	// zero only when no ceiling is knowable.
	if b := deriveIndexBudget(); b < 0 {
		t.Fatalf("deriveIndexBudget = %d", b)
	}
}

// TestPprofOnlyOnItsOwnMux: the profile endpoints answer on the mux the
// -pprof listener serves and are not routes of the API handler.
func TestPprofOnlyOnItsOwnMux(t *testing.T) {
	get := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		if code := get(http.DefaultServeMux, path); code != http.StatusOK {
			t.Errorf("pprof mux: GET %s = %d, want 200", path, code)
		}
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	if code := get(server.New(eng), "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("API handler: GET /debug/pprof/ = %d, want 404", code)
	}
}
