package relation

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// segmentImage returns the bytes writePLISegment produces for p.
func segmentImage(t testing.TB, p *PLI) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.seg")
	p.mu.Lock()
	_, err := writePLISegment(path, p)
	p.mu.Unlock()
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	return b
}

// damagedSegments returns images that differ from a valid one in
// exactly the ways the header check exists for: counts that make the
// implied size wrap around to the real one, a table that does not start
// at 0, goes backwards, holds an empty group, or stops short of n.
func damagedSegments(valid []byte) map[string][]byte {
	with := func(edit func(b []byte)) []byte {
		b := slices.Clone(valid)
		edit(b)
		return b
	}
	n := binary.LittleEndian.Uint64(valid[8:])
	offs := pliSegHeaderSize + 8*int(n)
	return map[string][]byte{
		"truncated":  valid[:len(valid)-4],
		"old magic":  with(func(b []byte) { copy(b, "SMDQPLI1") }),
		"n wraps":    with(func(b []byte) { binary.LittleEndian.PutUint64(b[8:], n+1<<62) }),
		"n negative": with(func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 1<<63) }),
		"offsets wrap": with(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:], binary.LittleEndian.Uint64(b[16:])+1<<62)
		}),
		"no offsets":      with(func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 0) }),
		"starts past 0":   with(func(b []byte) { binary.LittleEndian.PutUint32(b[offs:], 1) }),
		"goes backwards":  with(func(b []byte) { binary.LittleEndian.PutUint32(b[offs+8:], 0) }),
		"negative offset": with(func(b []byte) { binary.LittleEndian.PutUint32(b[offs+4:], 1<<31) }),
		"empty group": with(func(b []byte) {
			binary.LittleEndian.PutUint32(b[offs+8:], binary.LittleEndian.Uint32(b[offs+4:]))
		}),
		"ends short of n": with(func(b []byte) {
			last := len(b) - 4*int(n) - 4
			binary.LittleEndian.PutUint32(b[last:], uint32(n-1))
		}),
	}
}

// TestSegmentRejectsDamagedImage pins page-in's failure mode: a segment
// whose header or offsets table is damaged is an error from both
// decoders, never a panic in the open or a fault in a later Group.
func TestSegmentRejectsDamagedImage(t *testing.T) {
	r := randomMixedRelation(t, 3, 120)
	valid := segmentImage(t, BuildPLI(r, []int{0, 1}))
	if _, err := parsePLISegHeader(valid); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	for name, img := range damagedSegments(valid) {
		path := filepath.Join(t.TempDir(), "bad.seg")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openPLISegment(path); err == nil {
			t.Errorf("%s: platform decoder accepted the image", name)
		}
		if _, err := readPLISegmentHeap(path); err == nil {
			t.Errorf("%s: heap decoder accepted the image", name)
		}
	}
}

// FuzzPLISegment feeds arbitrary bytes to both segment decoders: they
// agree on accept or reject, and on every array of what they accept;
// an accepted image is a base every group of which can be read and
// which covers each of its rows once.
func FuzzPLISegment(f *testing.F) {
	r := randomMixedRelation(f, 5, 60)
	for _, attrs := range [][]int{{0}, {1, 2}, {3, 2, 1, 0}} {
		f.Add(segmentImage(f, BuildPLI(r, attrs)))
	}
	f.Add(segmentImage(f, BuildPLI(New(r.Schema()), []int{0})))
	for _, img := range damagedSegments(segmentImage(f, BuildPLI(r, []int{0, 1}))) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, merr := openPLISegment(path)
		heap, herr := readPLISegmentHeap(path)
		if (merr == nil) != (herr == nil) {
			t.Fatalf("decoders disagree: platform %v, heap %v", merr, herr)
		}
		if merr != nil {
			return
		}
		if mapped.n != heap.n || !slices.Equal(mapped.tids, heap.tids) ||
			!slices.Equal(mapped.offsets, heap.offsets) || !slices.Equal(mapped.tidGroup, heap.tidGroup) {
			t.Fatalf("decoders disagree on an accepted image")
		}
		p := &PLI{pliBase: mapped}
		covered := 0
		for g := 0; g < p.NumGroups(); g++ {
			if len(p.Group(g)) == 0 {
				t.Fatalf("accepted an image with empty group %d", g)
			}
			covered += len(p.Group(g))
		}
		if covered != mapped.n {
			t.Fatalf("groups cover %d of %d rows", covered, mapped.n)
		}
		for tid := 0; tid < mapped.n; tid++ {
			p.GroupOf(tid)
		}
	})
}
