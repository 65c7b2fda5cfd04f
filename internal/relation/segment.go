package relation

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// Segment files are the on-disk unit of the tiered storage layer: a
// PLI base (tids/offsets/tidGroup) written as fixed-width little-endian
// arrays — byte for byte the arrays BuildPLI emits, which is what lets
// a file come back as a base without a decode. A base is immutable and
// `Set` journals patches instead of rewriting codes, so a segment stays
// byte-valid until the column is hard-invalidated — the same watermark
// discipline the IndexCache already validates entries with. Sections
// are 8-byte aligned so a read-only mmap of the file can be
// reinterpreted as []int and []int32 in place on 64-bit little-endian
// platforms (mmap_linux.go); every other platform decodes the same
// bytes onto the heap (mmap_fallback.go), and the two paths are asserted
// byte-identical by TestSegmentMappedMatchesHeapDecode and
// FuzzPLISegment.
//
// PLI segment layout (all fields little-endian):
//
//	[0:8)    magic "SMDQPLI2"
//	[8:16)   n          int64  rows covered == len(tids) == len(tidGroup)
//	[16:24)  numOffsets int64  group count + 1
//	[24:..)  tids       int64[n]           (8-aligned)
//	[..:..)  offsets    int32[numOffsets]
//	[..:..)  tidGroup   int32[n]
const (
	pliSegMagic      = "SMDQPLI2"
	pliSegHeaderSize = 24
)

// pliSegHeader is the decoded fixed header of a PLI segment file.
type pliSegHeader struct {
	n          int64
	numOffsets int64
}

func (h pliSegHeader) fileSize() int64 {
	return pliSegHeaderSize + 12*h.n + 4*h.numOffsets
}

// sectionOffsets returns the byte offsets of the tids, offsets and
// tidGroup sections.
func (h pliSegHeader) sectionOffsets() (tids, offsets, tidGroup int64) {
	tids = pliSegHeaderSize
	offsets = tids + 8*h.n
	tidGroup = offsets + 4*h.numOffsets
	return
}

// parsePLISegHeader validates a whole segment image before any section
// is sliced or cast: the counts are bounded by the image's length first
// (so no product below can wrap), the length must be exactly what they
// imply, and the offsets table must be a partition of [0, n) into
// non-empty groups — start at 0, rise strictly, end at n. That is what
// Group and the key map's first-member reads index with, so a damaged
// file fails here, at page-in, instead of faulting in a reader. O(groups);
// TID and group values are not scanned.
func parsePLISegHeader(b []byte) (pliSegHeader, error) {
	var h pliSegHeader
	if len(b) < pliSegHeaderSize || string(b[:8]) != pliSegMagic {
		return h, fmt.Errorf("relation: not a PLI segment file")
	}
	n, numOffsets := binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:])
	if n > uint64(len(b))/12 || n > math.MaxInt32 || numOffsets < 1 || numOffsets-1 > n {
		return h, fmt.Errorf("relation: corrupt PLI segment header (n %d, offsets %d, %d bytes)", n, numOffsets, len(b))
	}
	h = pliSegHeader{n: int64(n), numOffsets: int64(numOffsets)}
	if int64(len(b)) != h.fileSize() {
		return h, fmt.Errorf("relation: PLI segment size %d != header-implied %d", len(b), h.fileSize())
	}
	_, off, _ := h.sectionOffsets()
	prev := int64(-1)
	for i := int64(0); i < h.numOffsets; i++ {
		o := int64(int32(binary.LittleEndian.Uint32(b[off+4*i:])))
		if o <= prev || (i == 0 && o != 0) {
			return h, fmt.Errorf("relation: corrupt PLI segment: offsets[%d] = %d after %d", i, o, prev)
		}
		prev = o
	}
	if prev != h.n {
		return h, fmt.Errorf("relation: corrupt PLI segment: offsets end at %d, n is %d", prev, h.n)
	}
	return h, nil
}

// writePLISegment writes the receiver's base to path. The caller holds
// p.mu and guarantees the overlay is empty — the base alone must be the
// partition. Returns the file size.
func writePLISegment(path string, p *PLI) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	h := pliSegHeader{n: int64(p.n), numOffsets: int64(len(p.offsets))}
	var hdr [pliSegHeaderSize]byte
	copy(hdr[:8], pliSegMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(h.n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(h.numOffsets))
	_, err = w.Write(hdr[:])
	if err == nil {
		err = writeIntSection(w, p.tids)
	}
	if err == nil {
		err = writeInt32Section(w, p.offsets)
	}
	if err == nil {
		err = writeInt32Section(w, p.tidGroup)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	return h.fileSize(), nil
}

func writeIntSection(w *bufio.Writer, s []int) error {
	var buf [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeInt32Section(w *bufio.Writer, s []int32) error {
	var buf [4]byte
	for _, v := range s {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// decodeIntSection decodes int64[count] at off into a heap slice.
func decodeIntSection(b []byte, off, count int64) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[off+int64(i)*8:])))
	}
	return out
}

// decodeInt32Section decodes int32[count] at off into a heap slice.
func decodeInt32Section(b []byte, off, count int64) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[off+int64(i)*4:]))
	}
	return out
}

// readPLISegmentHeap fully decodes a PLI segment file onto the heap —
// the portable path, and the reference the mmap path is tested against.
func readPLISegmentHeap(path string) (*pliBase, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	h, err := parsePLISegHeader(b)
	if err != nil {
		return nil, err
	}
	tOff, oOff, gOff := h.sectionOffsets()
	return &pliBase{
		n:        int(h.n),
		tids:     decodeIntSection(b, tOff, h.n),
		offsets:  decodeInt32Section(b, oOff, h.numOffsets),
		tidGroup: decodeInt32Section(b, gOff, h.n),
	}, nil
}
