// Package semandaq is the system facade reproducing Semandaq, the
// research prototype presented in §5 of the tutorial (Fan, Geerts, Jia,
// VLDB 2008 demo): a data-quality system supporting
//
//	(a) specification of CFDs,
//	(b) automatic detection of CFD violations using the SQL-based
//	    technique of TODS 2008 (or the native detector), and
//	(c) repairing — finding a candidate repair that minimally differs
//	    from the original data — plus the demo's interactive loop: the
//	    user inspects the candidate repair, confirms or overrides cells,
//	    and the system re-repairs around those manual changes.
//
// Project is a thin single-user facade over engine.Session, the
// concurrency-safe session type that also backs the semandaqd service
// (internal/server); the facade adds the SQL-based detection cross-check
// and the text rendering helpers the CLI uses.
package semandaq

import (
	"semandaq/internal/cfd"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
	"semandaq/internal/repair"
	"semandaq/internal/sqlgen"
)

// ConfirmedWeight is the cell weight assigned to user-confirmed values;
// it makes the repair engine treat them as (almost) immutable relative
// to default-weight cells.
const ConfirmedWeight = engine.ConfirmedWeight

// Project is a Semandaq session: one relation, one CFD set, cell
// confidence state, and the latest candidate repair. It delegates to an
// engine.Session with the default worker pool (NumCPU); parallel and
// serial detection return identical results, so the facade's behavior
// is unchanged from the original single-threaded implementation.
type Project struct {
	s *engine.Session
}

// NewProject opens a project. The constraint set must match the data's
// schema and be satisfiable (an unsatisfiable set cannot be repaired
// to).
func NewProject(name string, data *relation.Relation, set *cfd.Set) (*Project, error) {
	s, err := engine.NewSession(name, data, set, 0)
	if err != nil {
		return nil, err
	}
	return &Project{s: s}, nil
}

// Session exposes the underlying engine session, for callers graduating
// from the single-user facade to the concurrent service API.
func (p *Project) Session() *engine.Session { return p.s }

// Name returns the project name.
func (p *Project) Name() string { return p.s.Name() }

// Data returns the current working relation (aliased; treat as
// read-only and use Edit for changes).
func (p *Project) Data() *relation.Relation { return p.s.Data() }

// Constraints returns the project's CFD set.
func (p *Project) Constraints() *cfd.Set { return p.s.Constraints() }

// Detect runs native violation detection on the current data.
func (p *Project) Detect() ([]cfd.Violation, error) {
	res, err := p.s.Detect()
	if err != nil {
		return nil, err
	}
	return res.Violations, nil
}

// DetectSQL runs the TODS 2008 SQL-based detection on the current data
// and returns the violating TIDs. The result always equals
// cfd.ViolatingTIDs of Detect (cross-checked by tests).
func (p *Project) DetectSQL() ([]int, error) {
	data := p.s.Data()
	rn := sqlgen.NewRunner()
	if _, err := rn.Load(data.Schema().Name(), data); err != nil {
		return nil, err
	}
	return rn.DetectSet(p.s.Constraints(), data.Schema().Name())
}

// Repair computes (and caches) a candidate repair of the current data;
// it does NOT modify the data — inspect the result and call Accept, or
// edit cells and re-run.
func (p *Project) Repair() (*repair.Result, error) { return p.s.Repair() }

// Candidate returns the cached candidate repair (nil before Repair).
func (p *Project) Candidate() *repair.Result { return p.s.Candidate() }

// Accept commits the cached candidate repair as the current data.
func (p *Project) Accept() error { return p.s.Accept() }

// Edit is the demo's manual override: the user sets a cell to a value
// and the cell becomes confirmed, so subsequent repairs treat it as
// ground truth and resolve conflicts by changing other cells.
func (p *Project) Edit(tid, attr int, v relation.Value) error { return p.s.Edit(tid, attr, v) }

// Confirm marks a cell's current value as user-verified without
// changing it.
func (p *Project) Confirm(tid, attr int) error { return p.s.Confirm(tid, attr) }

// ConfirmedCells returns the confirmed cells, sorted.
func (p *Project) ConfirmedCells() [][2]int { return p.s.ConfirmedCells() }

// Append inserts new tuples and repairs only them incrementally
// (IncRepair), assuming the current data is clean; it returns the
// repair result and commits it.
func (p *Project) Append(tuples []relation.Tuple) (*repair.Result, error) {
	return p.s.Append(tuples)
}

// Summary renders a short project status report.
func (p *Project) Summary() (string, error) { return p.s.Summary() }

// FormatChanges renders a candidate repair's change list for review.
func FormatChanges(r *relation.Relation, changes []repair.Change, limit int) string {
	return engine.FormatChanges(r, changes, limit)
}
