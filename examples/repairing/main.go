// Command repairing demonstrates the measured repair pipeline of Cong et
// al. (VLDB 2007) on a synthetic customer workload: generate clean data
// governed by planted CFDs, inject noise at a configurable rate, run
// BatchRepair, and score the repair against the ground truth — then show
// the user-feedback loop (confirming a cell and re-repairing) and the
// incremental path for appended tuples.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"semandaq/internal/datagen"
	"semandaq/internal/noise"
	"semandaq/internal/relation"
	"semandaq/internal/repair"
	"semandaq/internal/semandaq"
)

func main() {
	n := flag.Int("n", 5000, "number of tuples")
	rate := flag.Float64("rate", 0.05, "noise rate")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	clean := datagen.Cust(*n, *seed)
	set := datagen.CustConstraints()
	schema := clean.Schema()
	str, ct := schema.MustIndex("STR"), schema.MustIndex("CT")

	dirty, truth := noise.Dirty(clean, noise.Options{
		Rate:  *rate,
		Attrs: []int{str, ct},
		Seed:  *seed + 1,
	})
	fmt.Printf("generated %d tuples, dirtied %d cells (rate %.1f%%)\n",
		*n, truth.Len(), *rate*100)

	p, err := semandaq.NewProject("repairing", dirty, set)
	if err != nil {
		log.Fatal(err)
	}
	vs, err := p.Detect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected %d violations\n", len(vs))

	start := time.Now()
	res, err := p.Repair()
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := repair.Verify(res, set); err != nil {
		log.Fatal(err)
	}
	q := noise.Score(res.Changes, truth)
	fmt.Printf("BatchRepair: %d changes in %v (%d passes)\n", len(res.Changes), elapsed, res.Passes)
	fmt.Printf("quality vs ground truth: P=%.3f R=%.3f F1=%.3f\n", q.Precision, q.Recall, q.F1)
	if err := p.Accept(); err != nil {
		log.Fatal(err)
	}

	// Incremental path: append a new tuple that conflicts with its zip
	// group; IncRepair fixes only the newcomer.
	wrong := p.Data().Tuple(0)
	wrong[schema.MustIndex("PN")] = relation.String("fresh-pn")
	wrong[str] = relation.String("NO SUCH STREET")
	start = time.Now()
	incRes, err := p.Append([]relation.Tuple{wrong})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IncRepair of 1 appended tuple: %d changes in %v\n",
		len(incRes.Changes), time.Since(start))

	sum, err := p.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(sum)
}
