//go:build !race

package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"semandaq/internal/datagen"
)

// TestAppendHeapPerRow guards what an appended row costs in live heap
// once it is in: its per-column codes, its share of the dictionaries,
// and its place in the cached partitions of the five cust rules the
// ingest benchmark runs (the planted four plus phi5, whose left-hand
// side holds the CT cells the repair rewrites). The rows have the
// benchmark's shape: fresh zip codes per region, a unique phone number
// each, a fifth of them naming another region's city. A row is its
// codes, so the relation keeps no second, row-shaped copy of a cell;
// the bound fails if one comes back. (The race detector's shadow memory
// would distort the measurement, hence the build tag.)
func TestAppendHeapPerRow(t *testing.T) {
	const rows, maxBytesPerRow = 50000, 450
	s, err := NewSession("cust", datagen.Cust(2000, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallConstraints(datagen.CustConstraints().String() + "\ncfd phi5: cust([CT, ZIP] -> [STR])\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Detect(); err != nil { // build the cached partitions
		t.Fatal(err)
	}
	regions := [][3]string{
		{"44", "131", "edi"}, {"44", "141", "gla"}, {"44", "20", "ldn"},
		{"01", "908", "mh"}, {"01", "212", "nyc"}, {"01", "650", "mtv"},
	}
	rng := rand.New(rand.NewSource(1))
	seq := 0
	batch := func(n int) [][]string {
		out := make([][]string, n)
		for i := range out {
			ri, z := rng.Intn(len(regions)), rng.Intn(32)
			reg, ct := regions[ri], regions[ri][2]
			if rng.Intn(5) == 0 {
				ct = regions[(ri+1+rng.Intn(len(regions)-1))%len(regions)][2]
			}
			out[i] = []string{
				reg[0], reg[1], fmt.Sprintf("%s-b%07d", reg[1], seq), "bench",
				fmt.Sprintf("bench street %s-%d", reg[1], z), ct, fmt.Sprintf("ZB%s-%02d", reg[1], z),
			}
			seq++
		}
		return out
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	sizes := []int{1, 1, 1, 16, 64}
	for appended := 0; appended < rows; {
		n := min(sizes[rng.Intn(len(sizes))], rows-appended)
		if _, err := s.AppendRows(batch(n)); err != nil {
			t.Fatal(err)
		}
		appended += n
	}
	after := live()
	runtime.KeepAlive(s)
	perRow := (float64(after) - float64(before)) / rows
	t.Logf("live heap grew %.0f B per appended row (%d rows)", perRow, rows)
	if perRow > maxBytesPerRow {
		t.Fatalf("live heap grew %.0f B per appended row, bound %d", perRow, maxBytesPerRow)
	}
}
