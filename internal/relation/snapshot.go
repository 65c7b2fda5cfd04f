package relation

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Snapshots are the durable checkpoint form of a relation
// (internal/wal): the interned columnar state — per-column dictionaries
// plus dense int32 code columns — written in the same little-endian
// section style as the tiered-storage segment files (segment.go), which
// is already the most compact faithful form the relation has. A
// snapshot round-trips the relation cell-exactly: every reconstructed
// cell is Value-identical to the source cell (dictionary entries are
// the exact Value.Encode bytes, and code assignment is preserved
// verbatim), so detection, discovery and DC sweeps over a recovered
// relation produce byte-identical output.
//
// Layout (all integers little-endian):
//
//	[0:8)   magic "SMDQSNP1"
//	[8:16)  n     int64  row count
//	[16:24) arity int64  column count (must match the schema at read)
//	then per column:
//	  u64 dictLen   codes allocated (first-appearance order, 0..dictLen-1)
//	  u64 encBytes  total bytes of the concatenated dictionary entries
//	  entries       dictLen Value.Encode blobs, concatenated (self-delimiting)
//	  codes         int32[n]
const snapMagic = "SMDQSNP1"

// WriteSnapshot serializes the relation's columnar state to w. The
// caller must hold the relation quiescent (the engine captures a clone
// under the session lock and serializes that).
func (r *Relation) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [24]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(r.Len()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(r.cols)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var ch [16]byte
	for _, c := range r.cols {
		var encBytes int
		for _, e := range c.encs {
			encBytes += len(e)
		}
		binary.LittleEndian.PutUint64(ch[:8], uint64(len(c.encs)))
		binary.LittleEndian.PutUint64(ch[8:], uint64(encBytes))
		if _, err := bw.Write(ch[:]); err != nil {
			return err
		}
		for _, e := range c.encs {
			if _, err := bw.WriteString(e); err != nil {
				return err
			}
		}
		if err := writeInt32Section(bw, c.codes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a relation from snapshot bytes produced by
// WriteSnapshot. The schema must have the arity the snapshot was taken
// with; cells, dictionary codes and code order are restored exactly.
func ReadSnapshot(b []byte, schema *Schema) (*Relation, error) {
	if len(b) < 24 || string(b[:8]) != snapMagic {
		return nil, fmt.Errorf("relation: not a snapshot")
	}
	n := int64(binary.LittleEndian.Uint64(b[8:]))
	arity := int64(binary.LittleEndian.Uint64(b[16:]))
	if n < 0 || arity != int64(schema.Arity()) {
		return nil, fmt.Errorf("relation: snapshot arity %d != schema arity %d", arity, schema.Arity())
	}
	r := New(schema)
	off := int64(24)
	for a := 0; a < int(arity); a++ {
		if off+16 > int64(len(b)) {
			return nil, fmt.Errorf("relation: truncated snapshot (column %d header)", a)
		}
		dictLen := int64(binary.LittleEndian.Uint64(b[off:]))
		encBytes := int64(binary.LittleEndian.Uint64(b[off+8:]))
		off += 16
		if dictLen < 0 || encBytes < 0 || off+encBytes+4*n > int64(len(b)) {
			return nil, fmt.Errorf("relation: truncated snapshot (column %d sections)", a)
		}
		c := r.cols[a]
		entries := b[off : off+encBytes]
		off += encBytes
		c.values = make([]Value, dictLen)
		c.encs = make([]string, dictLen)
		c.dict = make(map[string]int32, dictLen)
		pos := 0
		for code := int64(0); code < dictLen; code++ {
			v, sz, err := DecodeValue(entries[pos:])
			if err != nil {
				return nil, fmt.Errorf("relation: snapshot column %d code %d: %v", a, code, err)
			}
			key := string(entries[pos : pos+sz])
			pos += sz
			c.values[code] = v
			c.encs[code] = key
			c.dict[key] = int32(code)
		}
		if int64(pos) != encBytes {
			return nil, fmt.Errorf("relation: snapshot column %d dictionary has %d trailing bytes", a, encBytes-int64(pos))
		}
		c.codes = decodeInt32Section(b, off, n)
		off += 4 * n
		for _, code := range c.codes {
			if int64(code) < 0 || int64(code) >= dictLen {
				return nil, fmt.Errorf("relation: snapshot column %d has out-of-range code %d", a, code)
			}
		}
	}
	if off != int64(len(b)) {
		return nil, fmt.Errorf("relation: snapshot has %d trailing bytes", int64(len(b))-off)
	}
	r.appends = uint64(n)
	return r, nil
}
