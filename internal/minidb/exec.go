package minidb

import (
	"fmt"
	"sort"

	"semandaq/internal/relation"
)

// DB is an in-memory SQL database: a catalog of named relations plus the
// query executor.
type DB struct {
	tables map[string]*relation.Relation
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*relation.Relation)}
}

// Register adds (or replaces) a table backed directly by a relation; no
// data is copied, so external mutations are visible to queries.
func (db *DB) Register(name string, r *relation.Relation) {
	db.tables[name] = r
}

// Table returns a registered table.
func (db *DB) Table(name string) (*relation.Relation, bool) {
	r, ok := db.tables[name]
	return r, ok
}

// Exec parses and runs one statement. SELECT returns its result relation;
// CREATE TABLE and INSERT return nil.
func (db *DB) Exec(sql string) (*relation.Relation, error) {
	stmt, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *CreateTable:
		if _, exists := db.tables[s.Name]; exists {
			return nil, fmt.Errorf("minidb: table %q already exists", s.Name)
		}
		schema, err := relation.NewSchema(s.Name, s.Columns...)
		if err != nil {
			return nil, err
		}
		db.tables[s.Name] = relation.New(schema)
		return nil, nil
	case *Insert:
		tbl, ok := db.tables[s.Table]
		if !ok {
			return nil, fmt.Errorf("minidb: unknown table %q", s.Table)
		}
		for _, row := range s.Rows {
			t := make(relation.Tuple, len(row))
			for i, e := range row {
				t[i] = e.(*Literal).Val
			}
			if _, err := tbl.Insert(t); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case *Select:
		return db.runSelect(s, nil, nil)
	case *Update:
		return nil, db.runUpdate(s)
	case *Delete:
		return nil, db.runDelete(s)
	default:
		return nil, fmt.Errorf("minidb: unsupported statement %T", stmt)
	}
}

// Query is Exec restricted to SELECT.
func (db *DB) Query(sql string) (*relation.Relation, error) {
	stmt, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("minidb: Query requires a SELECT statement")
	}
	return db.runSelect(sel, nil, nil)
}

// compileSingleTablePred compiles a WHERE clause against one table's
// scope, for UPDATE/DELETE.
func (db *DB) compileSingleTablePred(tbl *relation.Relation, alias string, where Expr) (func(relation.Tuple) bool, error) {
	if where == nil {
		return func(relation.Tuple) bool { return true }, nil
	}
	scope := &scopeInfo{}
	for j := 0; j < tbl.Schema().Arity(); j++ {
		a := tbl.Schema().Attr(j)
		scope.cols = append(scope.cols, scopeCol{table: alias, name: a.Name, kind: a.Kind})
	}
	comp := &compiler{scope: scope}
	comp.exists = func(n *ExistsOp, s *scopeInfo) (func(*env) relation.Value, error) {
		return db.compileExists(n, s)
	}
	ce, err := comp.compile(where)
	if err != nil {
		return nil, err
	}
	return func(t relation.Tuple) bool {
		return truthy(ce.eval(&env{row: t}))
	}, nil
}

// runUpdate executes UPDATE ... SET ... WHERE in place.
func (db *DB) runUpdate(up *Update) error {
	tbl, ok := db.tables[up.Table]
	if !ok {
		return fmt.Errorf("minidb: unknown table %q", up.Table)
	}
	cols := make([]int, len(up.Cols))
	vals := make([]relation.Value, len(up.Cols))
	for i, c := range up.Cols {
		pos, ok := tbl.Schema().Index(c)
		if !ok {
			return fmt.Errorf("minidb: unknown column %q in UPDATE", c)
		}
		cols[i] = pos
		vals[i] = up.Vals[i].(*Literal).Val
	}
	pred, err := db.compileSingleTablePred(tbl, up.Table, up.Where)
	if err != nil {
		return err
	}
	for tid, t := range tbl.Tuples() {
		if !pred(t) {
			continue
		}
		for i, pos := range cols {
			tbl.Set(tid, pos, vals[i])
		}
	}
	return nil
}

// runDelete executes DELETE FROM ... WHERE by rebuilding the table
// without the matching tuples (TIDs are renumbered).
func (db *DB) runDelete(del *Delete) error {
	tbl, ok := db.tables[del.Table]
	if !ok {
		return fmt.Errorf("minidb: unknown table %q", del.Table)
	}
	pred, err := db.compileSingleTablePred(tbl, del.Table, del.Where)
	if err != nil {
		return err
	}
	kept := relation.New(tbl.Schema())
	for _, t := range tbl.Tuples() {
		if !pred(t) {
			kept.MustInsert(t)
		}
	}
	db.tables[del.Table] = kept
	return nil
}

// fromSource is a resolved FROM table.
type fromSource struct {
	ref    TableRef
	rel    *relation.Relation
	offset int // start position of its columns in the combined row
}

// runSelect executes a SELECT. outerScope/outerEnv are non-nil when the
// select is a correlated subquery.
func (db *DB) runSelect(sel *Select, outerScope *scopeInfo, outerEnv *env) (*relation.Relation, error) {
	rows, scope, err := db.joinAndFilter(sel, outerScope, outerEnv, false)
	if err != nil {
		return nil, err
	}
	return db.project(sel, rows, scope)
}

// joinAndFilter evaluates FROM and WHERE, returning combined rows. If
// firstOnly is set it stops after one surviving row (EXISTS probing).
func (db *DB) joinAndFilter(sel *Select, outerScope *scopeInfo, outerEnv *env, firstOnly bool) ([][]relation.Value, *scopeInfo, error) {
	if len(sel.From) == 0 {
		return nil, nil, fmt.Errorf("minidb: SELECT requires FROM")
	}
	sources := make([]fromSource, len(sel.From))
	scope := &scopeInfo{parent: outerScope}
	seen := map[string]bool{}
	width := 0
	for i, ref := range sel.From {
		rel, ok := db.tables[ref.Table]
		if !ok {
			return nil, nil, fmt.Errorf("minidb: unknown table %q", ref.Table)
		}
		if seen[ref.Alias] {
			return nil, nil, fmt.Errorf("minidb: duplicate table alias %q", ref.Alias)
		}
		seen[ref.Alias] = true
		sources[i] = fromSource{ref: ref, rel: rel, offset: width}
		for j := 0; j < rel.Schema().Arity(); j++ {
			a := rel.Schema().Attr(j)
			scope.cols = append(scope.cols, scopeCol{table: ref.Alias, name: a.Name, kind: a.Kind})
		}
		width += rel.Schema().Arity()
	}

	comp := &compiler{scope: scope}
	comp.exists = func(n *ExistsOp, s *scopeInfo) (func(*env) relation.Value, error) {
		return db.compileExists(n, s)
	}

	// Classify WHERE conjuncts by the columns they touch (at depth 0).
	type pendingConj struct {
		expr     Expr
		maxPos   int // highest depth-0 position referenced
		applied  bool
		compiled compiledExpr
	}
	var pending []pendingConj
	for _, cj := range conjuncts(sel.Where) {
		var cols []*ColumnRef
		columnsOf(cj, &cols)
		maxPos := -1
		for _, cr := range cols {
			depth, pos, _, err := scope.resolve(cr.Table, cr.Name)
			if err != nil {
				return nil, nil, err
			}
			if depth == 0 && pos > maxPos {
				maxPos = pos
			}
		}
		if _, isExists := cj.(*ExistsOp); isExists {
			// EXISTS conjuncts apply after all tables are joined.
			maxPos = width - 1
		}
		ce, err := comp.compile(cj)
		if err != nil {
			return nil, nil, err
		}
		pending = append(pending, pendingConj{expr: cj, maxPos: maxPos, compiled: ce})
	}

	// equiKey inspects a not-yet-applied equality conjunct and reports
	// whether it joins the already-joined prefix [0, joinedWidth) with the
	// table spanning [lo, hi): returns the prefix-side and new-side key
	// expressions.
	equiKey := func(cj Expr, joinedWidth, lo, hi int) (outerE, innerE Expr, ok bool) {
		b, isBin := cj.(*BinaryOp)
		if !isBin || b.Op != "=" {
			return nil, nil, false
		}
		side := func(e Expr) (allPrefix, allNew bool) {
			var cols []*ColumnRef
			columnsOf(e, &cols)
			if len(cols) == 0 {
				return false, false
			}
			allPrefix, allNew = true, true
			for _, cr := range cols {
				depth, pos, _, err := scope.resolve(cr.Table, cr.Name)
				if err != nil || depth != 0 {
					return false, false
				}
				if pos >= joinedWidth {
					allPrefix = false
				}
				if pos < lo || pos >= hi {
					allNew = false
				}
			}
			return allPrefix, allNew
		}
		lPrefix, lNew := side(b.L)
		rPrefix, rNew := side(b.R)
		switch {
		case lPrefix && rNew:
			return b.L, b.R, true
		case rPrefix && lNew:
			return b.R, b.L, true
		default:
			return nil, nil, false
		}
	}

	// Start with the first table.
	first := sources[0]
	var rows [][]relation.Value
	// passes evaluates the not-yet-applied conjuncts resolvable within
	// uptoWidth against row (which may be a reusable scratch buffer — no
	// allocation happens here).
	passes := func(row []relation.Value, uptoWidth int) bool {
		e := &env{row: row, outer: outerEnv}
		for i := range pending {
			p := &pending[i]
			if p.applied || p.maxPos >= uptoWidth {
				continue
			}
			if !truthy(p.compiled.eval(e)) {
				return false
			}
		}
		return true
	}
	markApplied := func(uptoWidth int) {
		for i := range pending {
			if !pending[i].applied && pending[i].maxPos < uptoWidth {
				pending[i].applied = true
			}
		}
	}

	firstWidth := first.rel.Schema().Arity()
	allEarly := len(sources) == 1
	for i := range pending {
		if pending[i].maxPos >= firstWidth {
			allEarly = false
		}
	}
	// Cells are read one by one rather than through Tuples(), which would
	// copy the whole table even when an EXISTS probe stops at its first row.
	scratch := make([]relation.Value, width)
	for tid := 0; tid < first.rel.Len(); tid++ {
		for a := 0; a < firstWidth; a++ {
			scratch[a] = first.rel.Get(tid, a)
		}
		if !passes(scratch, firstWidth) {
			continue
		}
		row := make([]relation.Value, width)
		copy(row[:firstWidth], scratch[:firstWidth])
		rows = append(rows, row)
		if firstOnly && allEarly {
			break
		}
	}
	markApplied(firstWidth)

	joinedWidth := firstWidth
	for k := 1; k < len(sources); k++ {
		src := sources[k]
		lo, hi := src.offset, src.offset+src.rel.Schema().Arity()

		// Pre-filter the new table with conjuncts local to it.
		var newRows []relation.Tuple
		localEnvRow := make([]relation.Value, width)
		for _, t := range src.rel.Tuples() {
			copy(localEnvRow[lo:hi], t)
			e := &env{row: localEnvRow, outer: outerEnv}
			ok := true
			for i := range pending {
				p := &pending[i]
				if p.applied {
					continue
				}
				if localConjunct(p.expr, scope, lo, hi) {
					if !truthy(p.compiled.eval(e)) {
						ok = false
						break
					}
				}
			}
			if ok {
				newRows = append(newRows, t)
			}
		}
		for i := range pending {
			if !pending[i].applied && localConjunct(pending[i].expr, scope, lo, hi) {
				pending[i].applied = true
			}
		}

		// Collect hash-joinable equi conjuncts.
		var outKeys, inKeys []compiledExpr
		for i := range pending {
			p := &pending[i]
			if p.applied {
				continue
			}
			if oe, ie, ok := equiKey(p.expr, joinedWidth, lo, hi); ok {
				oc, err := comp.compile(oe)
				if err != nil {
					return nil, nil, err
				}
				ic, err := comp.compile(ie)
				if err != nil {
					return nil, nil, err
				}
				outKeys = append(outKeys, oc)
				inKeys = append(inKeys, ic)
				p.applied = true
			}
		}

		var joined [][]relation.Value
		if len(outKeys) > 0 {
			// Hash join: build on the (pre-filtered) new table.
			build := make(map[string][]relation.Tuple, len(newRows))
			keyBuf := make([]byte, 0, 64)
			for _, t := range newRows {
				copy(localEnvRow[lo:hi], t)
				e := &env{row: localEnvRow, outer: outerEnv}
				keyBuf = keyBuf[:0]
				null := false
				for _, ic := range inKeys {
					v := ic.eval(e)
					if v.IsNull() {
						null = true
						break
					}
					keyBuf = v.Encode(keyBuf)
				}
				if null {
					continue // NULL join keys never match
				}
				build[string(keyBuf)] = append(build[string(keyBuf)], t)
			}
			for _, row := range rows {
				e := &env{row: row, outer: outerEnv}
				keyBuf = keyBuf[:0]
				null := false
				for _, oc := range outKeys {
					v := oc.eval(e)
					if v.IsNull() {
						null = true
						break
					}
					keyBuf = v.Encode(keyBuf)
				}
				if null {
					continue
				}
				for _, t := range build[string(keyBuf)] {
					copy(scratch, row[:joinedWidth])
					copy(scratch[lo:hi], t)
					if !passes(scratch, hi) {
						continue
					}
					nr := make([]relation.Value, width)
					copy(nr, scratch[:hi])
					joined = append(joined, nr)
				}
			}
		} else {
			// Nested-loop join: evaluate the join predicate on a scratch
			// buffer and materialize only surviving pairs.
			for _, row := range rows {
				copy(scratch, row[:joinedWidth])
				for _, t := range newRows {
					copy(scratch[lo:hi], t)
					if !passes(scratch, hi) {
						continue
					}
					nr := make([]relation.Value, width)
					copy(nr, scratch[:hi])
					joined = append(joined, nr)
				}
			}
		}
		rows = joined
		joinedWidth = hi
		markApplied(joinedWidth)
	}

	// Apply any remaining conjuncts (e.g. EXISTS) and honor firstOnly.
	var out [][]relation.Value
	for _, row := range rows {
		e := &env{row: row, outer: outerEnv}
		ok := true
		for i := range pending {
			p := &pending[i]
			if p.applied {
				continue
			}
			if !truthy(p.compiled.eval(e)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
			if firstOnly {
				return out, scope, nil
			}
		}
	}
	return out, scope, nil
}

// localConjunct reports whether all depth-0 columns of cj fall within
// [lo, hi) — i.e. the conjunct only constrains the new table (correlated
// outer references are allowed; they are bound at evaluation time).
func localConjunct(cj Expr, scope *scopeInfo, lo, hi int) bool {
	if _, isExists := cj.(*ExistsOp); isExists {
		return false
	}
	var cols []*ColumnRef
	columnsOf(cj, &cols)
	any := false
	for _, cr := range cols {
		depth, pos, _, err := scope.resolve(cr.Table, cr.Name)
		if err != nil {
			return false
		}
		if depth != 0 {
			continue
		}
		if pos < lo || pos >= hi {
			return false
		}
		any = true
	}
	return any
}

// compileExists compiles a [NOT] EXISTS subquery into a probe function.
// When every correlated conjunct is an equality between a subquery-local
// expression and an outer expression, the subquery is decorrelated into a
// hash semi-join: the inner side is materialized once and probed per
// outer row. Otherwise the subquery re-executes per outer row.
func (db *DB) compileExists(n *ExistsOp, outer *scopeInfo) (func(*env) relation.Value, error) {
	sub := n.Sub
	// Build the subquery scope to analyze correlation.
	subScope := &scopeInfo{parent: outer}
	for _, ref := range sub.From {
		rel, ok := db.tables[ref.Table]
		if !ok {
			return nil, fmt.Errorf("minidb: unknown table %q", ref.Table)
		}
		for j := 0; j < rel.Schema().Arity(); j++ {
			a := rel.Schema().Attr(j)
			subScope.cols = append(subScope.cols, scopeCol{table: ref.Alias, name: a.Name, kind: a.Kind})
		}
	}

	classify := func(e Expr) (local, correlated bool, err error) {
		var cols []*ColumnRef
		columnsOf(e, &cols)
		local, correlated = false, false
		for _, cr := range cols {
			depth, _, _, rerr := subScope.resolve(cr.Table, cr.Name)
			if rerr != nil {
				return false, false, rerr
			}
			if depth == 0 {
				local = true
			} else {
				correlated = true
			}
		}
		return local, correlated, nil
	}

	var innerConjs []Expr       // uncorrelated, stay in the subquery
	var eqInner, eqOuter []Expr // decorrelated equality pairs
	decorrelatable := sub.GroupBy == nil && sub.Having == nil
	for _, cj := range conjuncts(sub.Where) {
		local, correlated, err := classify(cj)
		if err != nil {
			return nil, err
		}
		if !correlated {
			innerConjs = append(innerConjs, cj)
			continue
		}
		b, isBin := cj.(*BinaryOp)
		if !isBin || b.Op != "=" {
			decorrelatable = false
			break
		}
		lLocal, lCorr, err := classify(b.L)
		if err != nil {
			return nil, err
		}
		rLocal, rCorr, err := classify(b.R)
		if err != nil {
			return nil, err
		}
		switch {
		case lLocal && !lCorr && !rLocal && rCorr:
			eqInner = append(eqInner, b.L)
			eqOuter = append(eqOuter, b.R)
		case rLocal && !rCorr && !lLocal && lCorr:
			eqInner = append(eqInner, b.R)
			eqOuter = append(eqOuter, b.L)
		default:
			decorrelatable = false
		}
		if !decorrelatable {
			break
		}
		_ = local
	}

	if decorrelatable && len(eqInner) > 0 {
		// Materialize the inner side once: inner FROM with uncorrelated
		// conjuncts, keyed by the inner equality expressions.
		innerSel := &Select{From: sub.From, Where: andAll(innerConjs), Limit: -1, Star: true}
		innerRows, innerScope, err := db.joinAndFilter(innerSel, nil, nil, false)
		if err != nil {
			return nil, err
		}
		innerComp := &compiler{scope: innerScope}
		keys := make(map[string]bool, len(innerRows))
		keyExprs := make([]compiledExpr, len(eqInner))
		for i, e := range eqInner {
			ce, err := innerComp.compile(e)
			if err != nil {
				return nil, err
			}
			keyExprs[i] = ce
		}
		buf := make([]byte, 0, 64)
		for _, row := range innerRows {
			e := &env{row: row}
			buf = buf[:0]
			null := false
			for _, ke := range keyExprs {
				v := ke.eval(e)
				if v.IsNull() {
					null = true
					break
				}
				buf = v.Encode(buf)
			}
			if !null {
				keys[string(buf)] = true
			}
		}
		// Outer probe expressions compile in the OUTER scope.
		outerComp := &compiler{scope: outer}
		outerComp.exists = func(n *ExistsOp, s *scopeInfo) (func(*env) relation.Value, error) {
			return db.compileExists(n, s)
		}
		probeExprs := make([]compiledExpr, len(eqOuter))
		for i, e := range eqOuter {
			ce, err := outerComp.compile(e)
			if err != nil {
				return nil, err
			}
			probeExprs[i] = ce
		}
		neg := n.Neg
		return func(e *env) relation.Value {
			buf := make([]byte, 0, 64)
			for _, pe := range probeExprs {
				v := pe.eval(e)
				if v.IsNull() {
					return boolVal(neg) // NULL key matches nothing
				}
				buf = v.Encode(buf)
			}
			return boolVal(keys[string(buf)] != neg)
		}, nil
	}

	// Fallback: re-execute the subquery per outer row with the outer
	// environment chained for correlated references.
	neg := n.Neg
	return func(e *env) relation.Value {
		rows, _, err := db.joinAndFilter(sub, outer, e, true)
		if err != nil {
			// Surface the error as "no match"; queries are validated by
			// tests before benchmark use. (Expression closures cannot
			// return errors without complicating every call site.)
			return boolVal(neg)
		}
		return boolVal((len(rows) > 0) != neg)
	}, nil
}

func andAll(exprs []Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &LogicalOp{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// project evaluates the select list (with grouping and aggregation),
// DISTINCT, ORDER BY and LIMIT, producing the result relation.
func (db *DB) project(sel *Select, rows [][]relation.Value, scope *scopeInfo) (*relation.Relation, error) {
	comp := &compiler{scope: scope}
	comp.exists = func(n *ExistsOp, s *scopeInfo) (func(*env) relation.Value, error) {
		return db.compileExists(n, s)
	}

	// Expand SELECT *.
	items := sel.Items
	if sel.Star {
		if len(sel.GroupBy) > 0 {
			return nil, fmt.Errorf("minidb: SELECT * with GROUP BY is not supported")
		}
		items = nil
		for _, c := range scope.cols {
			items = append(items, SelectItem{Expr: &ColumnRef{Table: c.table, Name: c.name}})
		}
	}

	// Collect aggregates from the select list and HAVING.
	var aggs []*Aggregate
	for _, it := range items {
		aggregatesOf(it.Expr, &aggs)
	}
	if sel.Having != nil {
		aggregatesOf(sel.Having, &aggs)
	}
	grouped := len(sel.GroupBy) > 0 || len(aggs) > 0

	// Output schema.
	names := make([]string, len(items))
	used := map[string]bool{}
	for i, it := range items {
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*ColumnRef); ok {
				name = cr.Name
			} else if ag, ok := it.Expr.(*Aggregate); ok {
				name = ag.Fn
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		base := name
		for n := 2; used[name]; n++ {
			name = fmt.Sprintf("%s_%d", base, n)
		}
		used[name] = true
		names[i] = name
	}

	// Decide where ORDER BY keys resolve: output columns (sort after
	// projection) or source columns (sort the combined rows first).
	effective := *sel
	if len(sel.OrderBy) > 0 {
		allOutput := true
		for _, o := range sel.OrderBy {
			if o.Col.Table != "" {
				allOutput = false
				break
			}
			if !used[o.Col.Name] {
				allOutput = false
				break
			}
		}
		if !allOutput {
			if grouped {
				return nil, fmt.Errorf("minidb: ORDER BY with GROUP BY must reference output columns")
			}
			type orderKey struct {
				ce   compiledExpr
				desc bool
			}
			keys := make([]orderKey, len(sel.OrderBy))
			for i, o := range sel.OrderBy {
				ce, err := comp.compile(o.Col)
				if err != nil {
					return nil, err
				}
				keys[i] = orderKey{ce, o.Desc}
			}
			sort.SliceStable(rows, func(a, b int) bool {
				ea, eb := &env{row: rows[a]}, &env{row: rows[b]}
				for _, k := range keys {
					c := k.ce.eval(ea).Compare(k.ce.eval(eb))
					if c != 0 {
						if k.desc {
							return c > 0
						}
						return c < 0
					}
				}
				return false
			})
			effective.OrderBy = nil
		}
	}
	sel = &effective

	if !grouped {
		comps := make([]compiledExpr, len(items))
		attrs := make([]relation.Attribute, len(items))
		for i, it := range items {
			ce, err := comp.compile(it.Expr)
			if err != nil {
				return nil, err
			}
			comps[i] = ce
			attrs[i] = relation.Attribute{Name: names[i], Kind: ce.kind}
		}
		schema, err := relation.NewSchema("result", attrs...)
		if err != nil {
			return nil, err
		}
		out := relation.New(schema)
		for _, row := range rows {
			e := &env{row: row}
			t := make(relation.Tuple, len(comps))
			for i, ce := range comps {
				t[i] = ce.eval(e)
			}
			if _, err := out.Insert(t); err != nil {
				return nil, err
			}
		}
		return finishSelect(sel, out)
	}

	// Grouped path. Assign each aggregate node an index and compile the
	// select/having expressions with aggregate interception.
	aggIndex := make(map[*Aggregate]int)
	for _, a := range aggs {
		if _, ok := aggIndex[a]; !ok {
			aggIndex[a] = len(aggIndex)
		}
	}
	var curAggs []relation.Value
	comp.aggIndex = aggIndex
	comp.curAggs = &curAggs

	groupPos := make([]int, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		depth, pos, _, err := scope.resolve(g.Table, g.Name)
		if err != nil {
			return nil, err
		}
		if depth != 0 {
			return nil, fmt.Errorf("minidb: GROUP BY column %s not in FROM scope", g.Name)
		}
		groupPos[i] = pos
	}

	comps := make([]compiledExpr, len(items))
	attrs := make([]relation.Attribute, len(items))
	for i, it := range items {
		ce, err := comp.compile(it.Expr)
		if err != nil {
			return nil, err
		}
		comps[i] = ce
		attrs[i] = relation.Attribute{Name: names[i], Kind: ce.kind}
	}
	var havingC compiledExpr
	if sel.Having != nil {
		ce, err := comp.compile(sel.Having)
		if err != nil {
			return nil, err
		}
		havingC = ce
	}

	// Compile aggregate argument expressions (no aggregates inside).
	argComp := &compiler{scope: scope}
	type aggSpec struct {
		node *Aggregate
		arg  *compiledExpr // nil for COUNT(*)
	}
	specs := make([]aggSpec, len(aggIndex))
	for node, idx := range aggIndex {
		spec := aggSpec{node: node}
		if node.Arg != nil {
			ce, err := argComp.compile(node.Arg)
			if err != nil {
				return nil, err
			}
			spec.arg = &ce
		}
		specs[idx] = spec
	}

	// Partition rows into groups.
	groups := make(map[string][][]relation.Value)
	var order []string
	for _, row := range rows {
		buf := make([]byte, 0, 32)
		for _, pos := range groupPos {
			buf = row[pos].Encode(buf)
		}
		k := string(buf)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	if len(sel.GroupBy) == 0 && len(rows) > 0 {
		// Implicit single group.
		groups = map[string][][]relation.Value{"": rows}
		order = []string{""}
	}
	if len(sel.GroupBy) == 0 && len(rows) == 0 {
		// Aggregates over an empty input: one group with empty rows (SQL
		// returns a single row, e.g. COUNT(*) = 0).
		groups = map[string][][]relation.Value{"": nil}
		order = []string{""}
	}

	schema, err := relation.NewSchema("result", attrs...)
	if err != nil {
		return nil, err
	}
	out := relation.New(schema)
	for _, k := range order {
		grows := groups[k]
		// Compute aggregates for this group.
		curAggs = curAggs[:0]
		for _, spec := range specs {
			curAggs = append(curAggs, computeAggregate(spec.node, spec.arg, grows))
		}
		// Representative row for group-by column references.
		var rep []relation.Value
		if len(grows) > 0 {
			rep = grows[0]
		} else {
			rep = make([]relation.Value, len(scope.cols))
		}
		e := &env{row: rep}
		if havingC.eval != nil && !truthy(havingC.eval(e)) {
			continue
		}
		t := make(relation.Tuple, len(comps))
		for i, ce := range comps {
			t[i] = ce.eval(e)
		}
		if _, err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return finishSelect(sel, out)
}

func computeAggregate(node *Aggregate, arg *compiledExpr, rows [][]relation.Value) relation.Value {
	if node.Fn == "COUNT" && node.Arg == nil {
		return relation.Int(int64(len(rows)))
	}
	var vals []relation.Value
	seen := map[string]bool{}
	for _, row := range rows {
		v := arg.eval(&env{row: row})
		if v.IsNull() {
			continue
		}
		if node.Distinct {
			k := string(v.Encode(nil))
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch node.Fn {
	case "COUNT":
		return relation.Int(int64(len(vals)))
	case "SUM", "AVG":
		if len(vals) == 0 {
			return relation.Null()
		}
		sum := 0.0
		for _, v := range vals {
			sum += v.FloatVal()
		}
		if node.Fn == "AVG" {
			return relation.Float(sum / float64(len(vals)))
		}
		return relation.Float(sum)
	case "MIN", "MAX":
		if len(vals) == 0 {
			return relation.Null()
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := v.Compare(best)
			if (node.Fn == "MIN" && c < 0) || (node.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best
	default:
		return relation.Null()
	}
}

// finishSelect applies DISTINCT, ORDER BY and LIMIT to the projected
// result.
func finishSelect(sel *Select, r *relation.Relation) (*relation.Relation, error) {
	out := r
	if sel.Distinct {
		dedup := relation.New(r.Schema())
		seen := map[string]bool{}
		for _, t := range r.Tuples() {
			k := t.FullKey()
			if seen[k] {
				continue
			}
			seen[k] = true
			dedup.MustInsert(t)
		}
		out = dedup
	}
	if len(sel.OrderBy) > 0 {
		idxs := make([]int, len(sel.OrderBy))
		descs := make([]bool, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			if o.Col.Table != "" {
				return nil, fmt.Errorf("minidb: ORDER BY must reference output columns, got %s.%s", o.Col.Table, o.Col.Name)
			}
			pos, ok := out.Schema().Index(o.Col.Name)
			if !ok {
				return nil, fmt.Errorf("minidb: ORDER BY column %q not in output", o.Col.Name)
			}
			idxs[i] = pos
			descs[i] = o.Desc
		}
		out.SortStable(func(a, b relation.Tuple) bool {
			for i, pos := range idxs {
				c := a[pos].Compare(b[pos])
				if c != 0 {
					if descs[i] {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	if sel.Limit >= 0 && out.Len() > sel.Limit {
		lim := relation.New(out.Schema())
		for i := 0; i < sel.Limit; i++ {
			lim.MustInsert(out.Tuple(i))
		}
		out = lim
	}
	return out, nil
}
