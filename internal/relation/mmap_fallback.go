//go:build !linux || !(amd64 || arm64)

package relation

// Mapping is a no-op stand-in on platforms without the zero-copy mmap
// path (see mmap_linux.go): segments are decoded onto the heap with
// plain reads, so no base is ever a view into mapped memory (pliBase.seg
// stays nil). Spill/page-in still works — a
// demoted index costs a file read instead of a rebuild — it just
// re-enters the byte budget at full heap size.
type Mapping struct{}

// mmapSupported reports whether this build reads segments zero-copy.
const mmapSupported = false

// openPLISegment decodes a PLI segment onto the heap.
func openPLISegment(path string) (*pliBase, error) {
	return readPLISegmentHeap(path)
}
