package bsat

import (
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/hashfam"
	"unigen/internal/sat"
)

// rowOver returns a row over ncols columns with the given columns set.
func rowOver(ncols int, rhs bool, cols ...int) gf2.Row {
	r := gf2.NewRow(ncols)
	for _, c := range cols {
		r.Set(c)
	}
	r.RHS = rhs
	return r
}

// TestInconsistentHashSkipsSolver: two equal rows with opposite
// right-hand sides reduce to 0 = 1, so the cell is reported exhausted
// and empty without any search, on both XOR engines. The drawn hash is
// left as it was.
func TestInconsistentHashSkipsSolver(t *testing.T) {
	f := cnf.New(5)
	f.AddClause(1, 2, 3)
	vars := f.SamplingVars()
	for _, scalar := range []bool{false, true} {
		sess := NewSession(f, Options{Solver: sat.Config{ScalarXOR: scalar}})
		h := &hashfam.Hash{Vars: vars, Rows: []gf2.Row{
			rowOver(len(vars), false, 0, 2, 3),
			rowOver(len(vars), true, 0, 2, 3),
		}}
		res := sess.Enumerate(100, h)
		if !res.Exhausted || res.BudgetExceeded || len(res.Witnesses) != 0 {
			t.Fatalf("scalar=%v: %d witnesses, exhausted=%v, want an exhausted empty cell",
				scalar, len(res.Witnesses), res.Exhausted)
		}
		if st := res.Stats; st.Decisions != 0 || st.Propagations != 0 || st.Conflicts != 0 {
			t.Fatalf("scalar=%v: solver work on a 0 = 1 cell: %+v", scalar, st)
		}
		if h.Rows[0].RHS || !h.Rows[1].RHS || h.Rows[0].Len() != 3 || h.Rows[1].Len() != 3 {
			t.Fatalf("scalar=%v: the drawn hash was modified", scalar)
		}
	}
}

// TestDependentHashRows: a third row equal to the sum of the first two
// adds nothing. The cell is the same as under the two independent rows,
// and only two hash rows reach the solver.
func TestDependentHashRows(t *testing.T) {
	f := cnf.New(6)
	f.AddClause(1, -2, 4)
	f.AddClause(-3, 5, 6)
	vars := f.SamplingVars()
	r1 := rowOver(len(vars), true, 0, 1, 4)
	r2 := rowOver(len(vars), false, 1, 2, 3, 5)
	r3 := rowOver(len(vars), true, 0, 1, 4)
	r3.Xor(r2)
	indep := &hashfam.Hash{Vars: vars, Rows: []gf2.Row{r1, r2}}
	dep := &hashfam.Hash{Vars: vars, Rows: []gf2.Row{r1, r2, r3}}
	want := projections(sat.BruteForceModels(f), vars, indep, nil)
	for _, scalar := range []bool{false, true} {
		sess := NewSession(f, Options{Solver: sat.Config{ScalarXOR: scalar}})
		a := sess.Enumerate(100, indep)
		b := sess.Enumerate(100, dep)
		// Two hash-row selectors plus the cell's blocking-clause selector.
		if len(sess.retired) != 3 {
			t.Fatalf("scalar=%v: %d selectors installed, want 3", scalar, len(sess.retired))
		}
		ka, kb := witnessKeys(t, a.Witnesses, vars), witnessKeys(t, b.Witnesses, vars)
		if !a.Exhausted || !b.Exhausted || !equalKeys(ka, kb) || len(ka) != len(want) {
			t.Fatalf("scalar=%v: independent rows %d witnesses, dependent rows %d, brute force %d",
				scalar, len(ka), len(kb), len(want))
		}
		for _, k := range ka {
			if !want[k] {
				t.Fatalf("scalar=%v: witness %s is not in the cell", scalar, k)
			}
		}
	}
}
