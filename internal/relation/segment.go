package relation

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
)

// Segment files are the on-disk unit of the tiered storage layer: a
// clean, compacted PLI's flat storage (tids/offsets/tidGroup) plus its
// TID-range shard layout (shardWidth/shardEnds — see shard.go) written
// as fixed-width little-endian arrays. Everything in a segment is
// immutable by construction:
// interior shards never change across appends (only the tail watermark
// moves) and `Set` journals patches instead of rewriting codes, so a
// segment stays byte-valid until the column is hard-invalidated — the
// same watermark discipline the IndexCache already validates entries
// with. Sections are 8-byte aligned so a read-only mmap of the file can
// be reinterpreted as []int and []int32 in place on 64-bit
// little-endian platforms (mmap_linux.go); every other platform decodes
// the same bytes onto the heap (mmap_fallback.go), and the two paths
// are asserted byte-identical by TestSegmentMappedMatchesHeapDecode.
//
// PLI segment layout (all fields little-endian):
//
//	[0:8)    magic "SMDQPLI1"
//	[8:16)   n          int64  rows covered (== len(tidGroup) == len(tids))
//	[16:24)  lenTids    int64
//	[24:32)  numOffsets int64  group count + 1
//	[32:40)  lenTidGrp  int64
//	[40:48)  shardWidth int64
//	[48:56)  numShards  int64
//	[56:64)  reserved   int64  (zero)
//	[64:..)  shardEnds  int64[numShards]   (always decoded to heap: mutable)
//	[..:..)  tids       int64[lenTids]     (8-aligned)
//	[..:..)  offsets    int32[numOffsets]
//	[..:..)  tidGroup   int32[lenTidGrp]
const (
	pliSegMagic      = "SMDQPLI1"
	pliSegHeaderSize = 64
)

// pliSegHeader is the decoded fixed header of a PLI segment file.
type pliSegHeader struct {
	n          int64
	lenTids    int64
	numOffsets int64
	lenTidGrp  int64
	shardWidth int64
	numShards  int64
}

func (h *pliSegHeader) fileSize() int64 {
	return pliSegHeaderSize + 8*h.numShards + 8*h.lenTids + 4*h.numOffsets + 4*h.lenTidGrp
}

// sectionOffsets returns the byte offsets of the shardEnds, tids,
// offsets and tidGroup sections.
func (h *pliSegHeader) sectionOffsets() (shardEnds, tids, offsets, tidGroup int64) {
	shardEnds = pliSegHeaderSize
	tids = shardEnds + 8*h.numShards
	offsets = tids + 8*h.lenTids
	tidGroup = offsets + 4*h.numOffsets
	return
}

func parsePLISegHeader(b []byte) (pliSegHeader, error) {
	var h pliSegHeader
	if len(b) < pliSegHeaderSize || string(b[:8]) != pliSegMagic {
		return h, fmt.Errorf("relation: not a PLI segment file")
	}
	h.n = int64(binary.LittleEndian.Uint64(b[8:]))
	h.lenTids = int64(binary.LittleEndian.Uint64(b[16:]))
	h.numOffsets = int64(binary.LittleEndian.Uint64(b[24:]))
	h.lenTidGrp = int64(binary.LittleEndian.Uint64(b[32:]))
	h.shardWidth = int64(binary.LittleEndian.Uint64(b[40:]))
	h.numShards = int64(binary.LittleEndian.Uint64(b[48:]))
	if h.n < 0 || h.lenTids < 0 || h.numOffsets < 1 || h.lenTidGrp < 0 || h.numShards < 0 {
		return h, fmt.Errorf("relation: corrupt PLI segment header")
	}
	if int64(len(b)) != h.fileSize() {
		return h, fmt.Errorf("relation: PLI segment size %d != header-implied %d", len(b), h.fileSize())
	}
	return h, nil
}

// writePLISegment writes the receiver's flat storage to path. The
// caller holds p.mu and guarantees the index is clean (no delta tail,
// no patch holes, not dirty) — segment files only ever hold canonical
// compacted storage. Returns the file size.
func writePLISegment(path string, p *PLI) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var hdr [pliSegHeaderSize]byte
	copy(hdr[:8], pliSegMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(p.n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(p.tids)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(p.offsets)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(p.tidGroup)))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(p.shardWidth))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(len(p.shardEnds)))
	_, err = w.Write(hdr[:])
	if err == nil {
		err = writeIntSection(w, p.shardEnds)
	}
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
	hdrCopy := pliSegHeader{
		n: int64(p.n), lenTids: int64(len(p.tids)), numOffsets: int64(len(p.offsets)),
		lenTidGrp: int64(len(p.tidGroup)), shardWidth: int64(p.shardWidth), numShards: int64(len(p.shardEnds)),
	}
	return hdrCopy.fileSize(), nil
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

// pliSegData is a PLI segment's decoded storage: either views into a
// read-only mapping (seg non-nil; the PLI that adopts these slices must
// keep seg referenced for as long as the slices live) or plain heap
// slices (seg nil, the fallback decode). shardEnds is always heap —
// advanceShardEnds mutates it in place.
type pliSegData struct {
	n          int
	tids       []int
	offsets    []int32
	tidGroup   []int32
	shardWidth int
	shardEnds  []int
	seg        *Mapping
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
func readPLISegmentHeap(path string) (*pliSegData, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	h, err := parsePLISegHeader(b)
	if err != nil {
		return nil, err
	}
	seOff, tOff, oOff, gOff := h.sectionOffsets()
	return &pliSegData{
		n:          int(h.n),
		tids:       decodeIntSection(b, tOff, h.lenTids),
		offsets:    decodeInt32Section(b, oOff, h.numOffsets),
		tidGroup:   decodeInt32Section(b, gOff, h.lenTidGrp),
		shardWidth: int(h.shardWidth),
		shardEnds:  decodeIntSection(b, seOff, h.numShards),
	}, nil
}
