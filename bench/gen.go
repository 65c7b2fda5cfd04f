package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"semandaq/internal/datagen"
	"semandaq/internal/noise"
	"semandaq/internal/relation"
)

// Everything the daemon receives is made here from the seed: CSV text,
// constraint text and the per-client operation streams. The daemon is
// never asked to generate or preload anything itself.

// dataset is one relation to upload, with the constraints that go with
// it. rel is what the CSV encodes; the checks and the traced twins are
// built from it.
type dataset struct {
	name string
	rel  *relation.Relation
	csv  string
	cfds string
	dcs  string
}

// custCFDs is the planted cust rule set plus phi5, a rule whose
// left-hand side holds CT. The planted rules only ever put CT on the
// right, so a repaired CT would touch no cached partition; with phi5 a
// dirty append makes the repair re-home a row inside a cached PLI,
// which is the patch path ingest-durable is there to measure.
func custCFDs() string {
	return datagen.CustConstraints().String() + "\ncfd phi5: cust([CT, ZIP] -> [STR])\n"
}

const custDCs = "dc zipstr: !( t.CC = u.CC & t.ZIP = u.ZIP & t.STR != u.STR )"

// noiseRate is the share of base tuples that get one corrupted STR or
// CT cell, as in the daemon's own -preload demo data.
const noiseRate = 0.05

func csvOf(r *relation.Relation) string {
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, r); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.String()
}

// genCust makes a noisy cust relation of n tuples.
func genCust(name string, n int, seed int64) *dataset {
	clean := datagen.Cust(n, seed)
	s := clean.Schema()
	dirty, _ := noise.Dirty(clean, noise.Options{
		Rate:  noiseRate,
		Attrs: []int{s.MustIndex("STR"), s.MustIndex("CT")},
		Seed:  seed + 1,
	})
	return &dataset{name: name, rel: dirty, csv: csvOf(dirty), cfds: custCFDs(), dcs: custDCs}
}

// genEmp makes the emp relation with 1% planted pay inversions.
func genEmp(name string, n int, seed int64) *dataset {
	rel := datagen.Emp(n, max(1, n/100), seed)
	return &dataset{name: name, rel: rel, csv: csvOf(rel), dcs: datagen.EmpDCText()}
}

// region is one row of the cust geography, the (CC, AC) -> CT table
// that phi3 states.
type region struct{ cc, ac, ct string }

var regions = []region{
	{"44", "131", "edi"}, {"44", "141", "gla"}, {"44", "20", "ldn"},
	{"01", "908", "mh"}, {"01", "212", "nyc"}, {"01", "650", "mtv"},
}

// freshZips is how many zip codes per region appended rows draw from.
// None of them occurs in generated base data: an incremental repair
// refuses a row that lands in a group whose base tuples already
// disagree, and with 5% noise nearly every base zip group does.
const freshZips = 32

// appendRow makes one cust row to append. A dirty row names another
// region's city, which contradicts phi3, so the daemon's incremental
// repair rewrites its CT cell.
func appendRow(rng *rand.Rand, client, seq int, dirty bool) []string {
	ri := rng.Intn(len(regions))
	reg := regions[ri]
	z := rng.Intn(freshZips)
	ct := reg.ct
	if dirty {
		ct = regions[(ri+1+rng.Intn(len(regions)-1))%len(regions)].ct
	}
	return []string{
		reg.cc, reg.ac,
		fmt.Sprintf("%s-b%d%07d", reg.ac, client, seq),
		fmt.Sprintf("bench%d", client),
		fmt.Sprintf("bench street %s-%d", reg.ac, z),
		ct,
		fmt.Sprintf("ZB%s-%02d", reg.ac, z),
	}
}

// op is one request of a client's stream.
type op struct {
	class string
	rows  [][]string // append
	tid   int        // edit
	value string     // edit
}

// weight is one class's share of a traffic mix.
type weight struct {
	class string
	w     float64
}

// stream is one client's seeded operation sequence. It has no end; a
// run consumes as much of it as fits its window, and two runs with the
// same seed see the same prefix.
//
// Classes are dealt in shuffled blocks that hold each class in exact
// proportion to its weight, not drawn one by one: with a few hundred
// ops in a window, independent draws would let the realised share of a
// rare, slow class (discover, a cluster detect) swing throughput by
// more than any regression bound.
type stream struct {
	rng     *rand.Rand
	block   []string // one block's classes, in mix order
	deal    []string // what is left of the current shuffled block
	client  int
	seq     int
	batches []int   // append batch sizes to draw from
	dirty   float64 // share of appended rows that are dirty
	baseN   int     // edits pick a TID below this
}

// blockScale turns mix weights into whole ops per block: the smallest
// weight in use is 0.3.
const blockScale = 10

func newStream(w *workload, seed int64, client int) *stream {
	s := &stream{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(w.index)*101 + int64(client))),
		client:  client,
		batches: w.batches,
		dirty:   w.dirtyShare,
		baseN:   w.custN,
	}
	for _, m := range w.mix {
		for i := 0; i < int(m.w*blockScale+0.5); i++ {
			s.block = append(s.block, m.class)
		}
	}
	return s
}

func (s *stream) next() op {
	if len(s.deal) == 0 {
		s.deal = append(s.deal, s.block...)
		s.rng.Shuffle(len(s.deal), func(i, j int) { s.deal[i], s.deal[j] = s.deal[j], s.deal[i] })
	}
	o := op{class: s.deal[0]}
	s.deal = s.deal[1:]
	switch o.class {
	case "append":
		n := s.batches[s.rng.Intn(len(s.batches))]
		o.rows = make([][]string, n)
		for i := range o.rows {
			o.rows[i] = appendRow(s.rng, s.client, s.seq, s.rng.Float64() < s.dirty)
			s.seq++
		}
	case "edit":
		// NM is in no constraint: the edit invalidates the cached
		// violation list without changing what detection finds, so
		// later appends still meet a base they can repair against.
		o.tid = s.rng.Intn(s.baseN)
		o.value = fmt.Sprintf("ed%d", s.rng.Intn(1000))
	}
	return o
}
