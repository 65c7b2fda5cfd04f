// Package experiments implements the full experiment suite of DESIGN.md
// (E1–E12): for every table/figure-equivalent of the constituent papers
// the tutorial surveys, a Run function regenerates the measured rows.
// cmd/experiments prints them; the root bench_test.go wraps the measured
// kernels as testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/cind"
	"semandaq/internal/cqa"
	"semandaq/internal/datagen"
	"semandaq/internal/discovery"
	"semandaq/internal/matching"
	"semandaq/internal/noise"
	"semandaq/internal/relation"
	"semandaq/internal/repair"
	"semandaq/internal/semandaq"
	"semandaq/internal/sqlgen"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// timeIt measures f. Short runs are measured twice and the minimum
// reported, damping GC and allocator noise in single-shot timings.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	elapsed := time.Since(start)
	if elapsed < 200*time.Millisecond {
		start = time.Now()
		f()
		if second := time.Since(start); second < elapsed {
			elapsed = second
		}
	}
	return elapsed
}

// dirtyCust generates a dirty customer workload with noise restricted to
// the constrained attributes (so noise is observable by the CFDs).
func dirtyCust(n int, rate float64, seed int64) (*relation.Relation, *noise.Truth) {
	clean := datagen.Cust(n, seed)
	schema := clean.Schema()
	return noise.Dirty(clean, noise.Options{
		Rate:  rate,
		Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
		Seed:  seed + 1,
	})
}

// E1DetectScale measures CFD violation-detection time against the
// number of tuples, for the native detector and the SQL-based path
// (TODS 2008 experiment: detection scales linearly in |D|).
func E1DetectScale(sizes []int, rate float64) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "detection time vs #tuples (5 CFDs, noise 5%)",
		Columns: []string{"tuples", "native_ms", "sql_ms", "viol_tuples"},
	}
	set := datagen.CustConstraints()
	for _, n := range sizes {
		dirty, _ := dirtyCust(n, rate, 11)
		var native []cfd.Violation
		dNative := timeIt(func() {
			native, _ = cfd.NewDetector(set).Detect(dirty)
		})
		var sqlTIDs []int
		dSQL := timeIt(func() {
			rn := sqlgen.NewRunner()
			rn.Load("cust", dirty)
			sqlTIDs, _ = rn.DetectSet(set, "cust")
		})
		nNative := len(cfd.ViolatingTIDs(native))
		if nNative != len(sqlTIDs) {
			panic(fmt.Sprintf("E1: native %d tuples vs sql %d", nNative, len(sqlTIDs)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(dNative), ms(dSQL), fmt.Sprint(nNative),
		})
	}
	return t
}

// E2TableauSize measures detection time against the number of pattern
// rows: the merged-tableau query pair stays near-flat while the per-row
// plan grows linearly (the headline comparison of TODS 2008 §8).
func E2TableauSize(n int, rowCounts []int) *Table {
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("detection time vs tableau size (%d tuples)", n),
		Columns: []string{"rows", "merged_sql_ms", "perrow_sql_ms", "native_ms"},
	}
	dirty, _ := dirtyCust(n, 0.05, 13)
	for _, rows := range rowCounts {
		set := datagen.CustTableau(rows)
		c := set.CFD(0)

		rn := sqlgen.NewRunner()
		rn.Load("cust", dirty)
		gens, err := rn.InstallCFD(c, "cust")
		if err != nil {
			panic(err)
		}
		var merged, perRow []int
		dMerged := timeIt(func() {
			merged, _ = rn.DetectCFD(gens[0], "cust")
		})
		dPerRow := timeIt(func() {
			perRow, _ = rn.DetectCFDPerRow(gens[0], "cust")
		})
		dNative := timeIt(func() {
			cfd.DetectOne(dirty, c)
		})
		if len(merged) != len(perRow) {
			panic(fmt.Sprintf("E2: merged %d vs per-row %d", len(merged), len(perRow)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rows), ms(dMerged), ms(dPerRow), ms(dNative),
		})
	}
	return t
}

// E3DetectNoise measures detection time and violation counts against
// the noise rate.
func E3DetectNoise(n int, rates []float64) *Table {
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("detection vs noise rate (%d tuples)", n),
		Columns: []string{"noise_pct", "native_ms", "violations", "viol_tuples"},
	}
	set := datagen.CustConstraints()
	for _, rate := range rates {
		dirty, _ := dirtyCust(n, rate, 17)
		var vs []cfd.Violation
		d := timeIt(func() {
			vs, _ = cfd.NewDetector(set).Detect(dirty)
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", rate*100), ms(d),
			fmt.Sprint(len(vs)), fmt.Sprint(len(cfd.ViolatingTIDs(vs))),
		})
	}
	return t
}

// E4RepairQuality measures BatchRepair precision/recall against the
// noise rate (Cong et al. VLDB 2007 accuracy experiment), with uniform
// weights and with confidence weights that down-weight dirtied cells.
func E4RepairQuality(n int, rates []float64) *Table {
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("repair quality vs noise rate (%d tuples)", n),
		Columns: []string{"noise_pct", "prec", "rec", "f1", "w_prec", "w_rec", "changes", "time_ms"},
	}
	set := datagen.CustConstraints()
	for _, rate := range rates {
		dirty, truth := dirtyCust(n, rate, 19)
		var res *repair.Result
		d := timeIt(func() {
			var err error
			res, err = repair.Batch(dirty, set, repair.Options{})
			if err != nil {
				panic(err)
			}
		})
		if err := repair.Verify(res, set); err != nil {
			panic(err)
		}
		q := noise.Score(res.Changes, truth)

		// Confidence-weighted run: dirtied cells get low confidence, the
		// idealized setting of the paper's weighted experiments.
		weights := func(tid, attr int) float64 {
			if _, dirtied := truth.Cells[[2]int{tid, attr}]; dirtied {
				return 0.25
			}
			return 1
		}
		resW, err := repair.Batch(dirty, set, repair.Options{Weights: weights})
		if err != nil {
			panic(err)
		}
		qW := noise.Score(resW.Changes, truth)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", rate*100),
			fmt.Sprintf("%.3f", q.Precision), fmt.Sprintf("%.3f", q.Recall), fmt.Sprintf("%.3f", q.F1),
			fmt.Sprintf("%.3f", qW.Precision), fmt.Sprintf("%.3f", qW.Recall),
			fmt.Sprint(len(res.Changes)), ms(d),
		})
	}
	return t
}

// E5RepairScale measures BatchRepair time against the relation size.
func E5RepairScale(sizes []int, rate float64) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "repair time vs #tuples (noise 5%)",
		Columns: []string{"tuples", "repair_ms", "changes", "passes"},
	}
	set := datagen.CustConstraints()
	for _, n := range sizes {
		dirty, _ := dirtyCust(n, rate, 23)
		var res *repair.Result
		d := timeIt(func() {
			var err error
			res, err = repair.Batch(dirty, set, repair.Options{})
			if err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(d), fmt.Sprint(len(res.Changes)), fmt.Sprint(res.Passes),
		})
	}
	return t
}

// E6IncRepair compares IncRepair on a delta against re-running
// BatchRepair on the whole database, for growing delta fractions — the
// crossover experiment of Cong et al. VLDB 2007.
func E6IncRepair(baseSize int, deltaFracs []float64) *Table {
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("IncRepair vs BatchRepair (base %d tuples)", baseSize),
		Columns: []string{"delta_pct", "delta_tuples", "inc_ms", "batch_ms", "speedup"},
	}
	set := datagen.CustConstraints()
	base := datagen.Cust(baseSize, 29)
	schema := base.Schema()
	for _, frac := range deltaFracs {
		nDelta := int(frac * float64(baseSize))
		if nDelta < 1 {
			nDelta = 1
		}
		// Deltas: fresh tuples, 30% of them corrupted on STR/CT.
		deltaClean := datagen.Cust(nDelta, 31)
		deltaDirty, _ := noise.Dirty(deltaClean, noise.Options{
			Rate:  0.3,
			Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
			Seed:  37,
		})
		delta := make([]relation.Tuple, deltaDirty.Len())
		for i := range delta {
			delta[i] = deltaDirty.Tuple(i)
		}

		dInc := timeIt(func() {
			if _, err := repair.AppendAndRepair(base, delta, set, repair.Options{}); err != nil {
				panic(err)
			}
		})

		combined := base.Clone()
		for _, tup := range delta {
			combined.MustInsert(tup)
		}
		dBatch := timeIt(func() {
			if _, err := repair.Batch(combined, set, repair.Options{}); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", frac*100), fmt.Sprint(nDelta),
			ms(dInc), ms(dBatch),
			fmt.Sprintf("%.1fx", float64(dBatch)/float64(dInc)),
		})
	}
	return t
}

// E7Discovery measures CFD discovery time against the relation size and
// the number of discovered rules against the support threshold.
func E7Discovery(sizes []int, supports []int, nForSupport int) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "discovery scaling and support sensitivity",
		Columns: []string{"tuples", "support", "rules", "time_ms"},
	}
	for _, n := range sizes {
		r := datagen.Cust(n, 41)
		var rules []*cfd.CFD
		d := timeIt(func() {
			var err error
			rules, err = discovery.Discover(r, discovery.Options{MinSupport: 10, MaxLHS: 2})
			if err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), "10", fmt.Sprint(len(rules)), ms(d),
		})
	}
	r := datagen.Cust(nForSupport, 43)
	for _, sup := range supports {
		var rules []*cfd.CFD
		d := timeIt(func() {
			var err error
			rules, err = discovery.Discover(r, discovery.Options{MinSupport: sup, MaxLHS: 2})
			if err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nForSupport), fmt.Sprint(sup), fmt.Sprint(len(rules)), ms(d),
		})
	}
	return t
}

// MatchingSetup builds the §4 rules, target and derived RCKs shared by
// E8 and the matching example.
func MatchingSetup() (rules []*matching.MD, y []matching.AttrPair, keys []*matching.RCK, err error) {
	cardS, billingS := datagen.CardSchema(), datagen.BillingSchema()
	pair := func(name string, cmp matching.Comparator) matching.AttrPair {
		return matching.AttrPair{Left: cardS.MustIndex(name), Right: billingS.MustIndex(name), Cmp: cmp}
	}
	y = []matching.AttrPair{
		pair("fn", matching.Eq()), pair("ln", matching.Eq()), pair("addr", matching.Eq()),
		pair("phn", matching.Eq()), pair("email", matching.Eq()),
	}
	a, err := matching.NewMD("a", cardS, billingS,
		[]matching.AttrPair{pair("phn", matching.Eq())},
		[]matching.AttrPair{pair("addr", matching.Eq())})
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := matching.NewMD("b", cardS, billingS,
		[]matching.AttrPair{pair("email", matching.Eq())},
		[]matching.AttrPair{pair("fn", matching.Eq()), pair("ln", matching.Eq())})
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := matching.NewMD("c", cardS, billingS,
		[]matching.AttrPair{
			pair("ln", matching.Eq()), pair("addr", matching.Eq()),
			pair("fn", matching.MustApprox("jarowinkler", 0.85)),
		}, y)
	if err != nil {
		return nil, nil, nil, err
	}
	rules = []*matching.MD{a, b, c}
	keys, err = matching.DeduceRCKs(rules, y, matching.DeduceOptions{MaxPairs: 3})
	return rules, y, keys, err
}

// E8MatchQuality compares the derived-RCK matcher against exact-Y
// equality and the single rule (c) across perturbation levels.
func E8MatchQuality(persons int, perturbs []float64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("match quality vs perturbation (%d persons)", persons),
		Columns: []string{"perturb_pct", "rck_P", "rck_R", "rck_F1", "exact_F1", "ruleC_F1", "time_ms"},
	}
	rules, y, keys, err := MatchingSetup()
	if err != nil {
		panic(err)
	}
	_ = rules
	cardS, billingS := datagen.CardSchema(), datagen.BillingSchema()
	rckM, err := matching.NewMatcher(cardS, billingS, keys)
	if err != nil {
		panic(err)
	}
	exactKey, err := matching.NewRCK("exactY", cardS, billingS, y)
	if err != nil {
		panic(err)
	}
	exactM, err := matching.NewMatcher(cardS, billingS, []*matching.RCK{exactKey})
	if err != nil {
		panic(err)
	}
	// Rule (c) alone, as an RCK.
	ruleCKey, err := matching.NewRCK("ruleC", cardS, billingS, []matching.AttrPair{
		{Left: cardS.MustIndex("ln"), Right: billingS.MustIndex("ln"), Cmp: matching.Eq()},
		{Left: cardS.MustIndex("addr"), Right: billingS.MustIndex("addr"), Cmp: matching.Eq()},
		{Left: cardS.MustIndex("fn"), Right: billingS.MustIndex("fn"), Cmp: matching.MustApprox("jarowinkler", 0.85)},
	})
	if err != nil {
		panic(err)
	}
	ruleCM, err := matching.NewMatcher(cardS, billingS, []*matching.RCK{ruleCKey})
	if err != nil {
		panic(err)
	}

	for _, perturb := range perturbs {
		card, billing, truth := datagen.CardBilling(datagen.CardBillingOptions{
			Persons: persons, DupRate: 0.5, Perturb: perturb, Seed: 47,
		})
		var rckMatches []matching.Match
		d := timeIt(func() {
			rckMatches, err = rckM.Run(card, billing)
			if err != nil {
				panic(err)
			}
		})
		exactMatches, err := exactM.Run(card, billing)
		if err != nil {
			panic(err)
		}
		cMatches, err := ruleCM.Run(card, billing)
		if err != nil {
			panic(err)
		}
		q := matching.Evaluate(rckMatches, truth)
		qe := matching.Evaluate(exactMatches, truth)
		qc := matching.Evaluate(cMatches, truth)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", perturb*100),
			fmt.Sprintf("%.3f", q.Precision), fmt.Sprintf("%.3f", q.Recall), fmt.Sprintf("%.3f", q.F1),
			fmt.Sprintf("%.3f", qe.F1), fmt.Sprintf("%.3f", qc.F1), ms(d),
		})
	}
	return t
}

// E9CINDDetect measures CIND violation detection against the left
// relation size, native hash anti-join vs the generated NOT EXISTS SQL.
func E9CINDDetect(sizes []int) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "CIND detection vs #CD tuples (1% planted violations)",
		Columns: []string{"cd_tuples", "book_tuples", "native_ms", "sql_ms", "violations"},
	}
	psi := datagen.OrdersCIND()
	for _, n := range sizes {
		nBook := n / 2
		planted := n / 100
		cdRel, bookRel, _ := datagen.Orders(n, nBook, planted, 53)
		var native []cind.Violation
		dNative := timeIt(func() {
			var err error
			native, err = cind.Detect(cdRel, bookRel, psi)
			if err != nil {
				panic(err)
			}
		})
		var sqlTIDs []int
		dSQL := timeIt(func() {
			rn := sqlgen.NewRunner()
			rn.Load("CD", cdRel)
			rn.Load("book", bookRel)
			var err error
			sqlTIDs, err = rn.DetectCIND(psi, "CD", "book")
			if err != nil {
				panic(err)
			}
		})
		if len(native) != len(sqlTIDs) {
			panic(fmt.Sprintf("E9: native %d vs sql %d", len(native), len(sqlTIDs)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(nBook), ms(dNative), ms(dSQL), fmt.Sprint(len(native)),
		})
	}
	return t
}

// E10Reasoning measures consistency and implication analysis time
// against the constraint-set size (TODS 2008 §6 static analyses).
func E10Reasoning(rowCounts []int) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "static analyses vs #pattern rows",
		Columns: []string{"rows", "satisfiable_ms", "implication_ms"},
	}
	for _, rows := range rowCounts {
		set := datagen.CustTableau(rows)
		// Add the tutorial constraints to make the set heterogeneous.
		for _, c := range datagen.CustConstraints().All() {
			set.MustAdd(c)
		}
		var sat bool
		dSat := timeIt(func() {
			sat, _ = cfd.Satisfiable(set)
		})
		if !sat {
			panic("E10: generated set must be satisfiable")
		}
		// Implication of a held member row: the region rule specialized.
		phi := cfd.MustParse("cust([CC='44', AC='131'] -> [CT='edi'])", set.Schema())
		var implied bool
		dImp := timeIt(func() {
			var err error
			implied, err = cfd.Implies(set, phi)
			if err != nil {
				panic(err)
			}
		})
		if !implied {
			panic("E10: member specialization must be implied")
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(rows), ms(dSat), ms(dImp)})
	}
	return t
}

// E11CQA compares certain-answer evaluation against direct evaluation
// on a key-violating relation.
func E11CQA(sizes []int, conflictRate float64) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "consistent query answering vs #tuples",
		Columns: []string{"tuples", "conflicts", "direct_ms", "certain_ms", "direct_ans", "certain_ans"},
	}
	for _, n := range sizes {
		r := datagen.Cust(n, 59)
		schema := r.Schema()
		// Key: PN. Inject conflicts by duplicating tuples with the same
		// PN but a corrupted CT.
		dirty := r.Clone()
		nConf := int(conflictRate * float64(n))
		for i := 0; i < nConf; i++ {
			t0 := r.Tuple(i % r.Len())
			t0[schema.MustIndex("CT")] = relation.String("conflict-city")
			dirty.MustInsert(t0)
		}
		key := []int{schema.MustIndex("PN")}
		ctIdx := schema.MustIndex("CT")
		ccIdx := schema.MustIndex("CC")
		q := cqa.Query{
			Pred:    func(tp relation.Tuple) bool { return tp[ccIdx].Equal(relation.String("44")) },
			Project: []int{ctIdx},
		}
		// One answerer threads a single partition cache through the
		// query path: Certain partitions once, Conflicts reuses it.
		ans := cqa.NewAnswerer(dirty, key)
		var direct, certain *relation.Relation
		dDirect := timeIt(func() {
			var err error
			direct, err = cqa.Direct(dirty, q)
			if err != nil {
				panic(err)
			}
		})
		dCertain := timeIt(func() {
			var err error
			certain, err = ans.Certain(q)
			if err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(dirty.Len()), fmt.Sprint(len(ans.Conflicts())),
			ms(dDirect), ms(dCertain),
			fmt.Sprint(direct.Len()), fmt.Sprint(certain.Len()),
		})
	}
	return t
}

// E12EndToEnd walks the Semandaq demo loop on one workload and reports
// the latency of each stage.
func E12EndToEnd(n int, rate float64) *Table {
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("Semandaq end-to-end (%d tuples, noise %.0f%%)", n, rate*100),
		Columns: []string{"stage", "time_ms", "detail"},
	}
	dirty, truth := dirtyCust(n, rate, 61)
	set := datagen.CustConstraints()
	p, err := semandaq.NewProject("e12", dirty, set)
	if err != nil {
		panic(err)
	}
	var vs []cfd.Violation
	d := timeIt(func() { vs, _ = p.Detect() })
	t.Rows = append(t.Rows, []string{"detect", ms(d), fmt.Sprintf("%d violations", len(vs))})

	var res *repair.Result
	d = timeIt(func() {
		res, err = p.Repair()
		if err != nil {
			panic(err)
		}
	})
	q := noise.Score(res.Changes, truth)
	t.Rows = append(t.Rows, []string{"repair", ms(d),
		fmt.Sprintf("%d changes, P=%.2f R=%.2f", len(res.Changes), q.Precision, q.Recall)})

	if err := p.Accept(); err != nil {
		panic(err)
	}

	// User override: confirm one repaired cell back to a custom value and
	// re-repair.
	if len(res.Changes) > 0 {
		ch := res.Changes[0]
		d = timeIt(func() {
			if err := p.Edit(ch.TID, ch.Attr, ch.From); err != nil {
				panic(err)
			}
			if _, err := p.Repair(); err != nil {
				panic(err)
			}
			if err := p.Accept(); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{"edit+rerepair", ms(d), "1 user override"})
	}

	// Incremental append.
	tup := p.Data().Tuple(0)
	tup[p.Data().Schema().MustIndex("PN")] = relation.String("e12-fresh")
	tup[p.Data().Schema().MustIndex("STR")] = relation.String("E12 WRONG STREET")
	d = timeIt(func() {
		if _, err := p.Append([]relation.Tuple{tup}); err != nil {
			panic(err)
		}
	})
	t.Rows = append(t.Rows, []string{"inc_append", ms(d), "1 tuple via IncRepair"})

	final, _ := p.Detect()
	t.Rows = append(t.Rows, []string{"final_check", "0.0", fmt.Sprintf("%d violations remain", len(final))})
	return t
}
