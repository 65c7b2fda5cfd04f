//go:build linux && (amd64 || arm64)

package relation

import (
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Mapping is a read-only mmap of a segment file. The int/int32 views
// handed out by openPLISegment point straight into the mapped pages —
// no copy, no decode — which is what makes paging a demoted index back
// in O(1): the kernel faults pages lazily and may reclaim them under
// memory pressure, so a mapped index costs page cache, not Go heap.
// Writing through the views would fault (PROT_READ); nothing does — a
// base is immutable, mapped or not, and every change to the partition
// goes to the PLI's overlay.
//
// Lifetime: the mapping is unmapped by a finalizer once nothing
// references it. Views into the mapping do NOT keep it alive on their
// own (mapped pages are not Go heap, so the GC does not trace them);
// the adopting base keeps the *Mapping in a field, and readers keep the
// PLI alive for as long as they hold slices from it —
// the documented aliasing rule for Group/Lookup results already
// requires exactly that. Unlinking a mapped file is safe on Linux: the
// pages stay valid until the last munmap.
type Mapping struct {
	data     []byte
	unmapped atomic.Bool
}

// mmapSupported reports whether this build reads segments zero-copy.
const mmapSupported = true

// mapFile maps path read-only.
func mapFile(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == 0 {
		return nil, syscall.EINVAL
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	m := &Mapping{data: data}
	runtime.SetFinalizer(m, (*Mapping).unmap)
	return m, nil
}

func (m *Mapping) unmap() {
	if m.unmapped.CompareAndSwap(false, true) {
		syscall.Munmap(m.data)
	}
}

// castInts reinterprets the 8-aligned little-endian int64 section at
// [off, off+8*count) as []int in place. Safe on this build's platforms:
// 64-bit little-endian, and the segment layout keeps every int64
// section 8-aligned (mmap bases are page-aligned).
func castInts(b []byte, off, count int64) []int {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&b[off])), count)
}

// castInt32s reinterprets the 4-aligned int32 section at [off,
// off+4*count) as []int32 in place.
func castInt32s(b []byte, off, count int64) []int32 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[off])), count)
}

// openPLISegment opens a PLI segment as a base whose arrays are
// zero-copy views into a read-only mapping. Falls back to the heap
// decode if the file cannot be mapped.
func openPLISegment(path string) (*pliBase, error) {
	m, err := mapFile(path)
	if err != nil {
		return readPLISegmentHeap(path)
	}
	h, err := parsePLISegHeader(m.data)
	if err != nil {
		m.unmap()
		return nil, err
	}
	tOff, oOff, gOff := h.sectionOffsets()
	return &pliBase{
		n:        int(h.n),
		tids:     castInts(m.data, tOff, h.n),
		offsets:  castInt32s(m.data, oOff, h.numOffsets),
		tidGroup: castInt32s(m.data, gOff, h.n),
		seg:      m,
	}, nil
}
