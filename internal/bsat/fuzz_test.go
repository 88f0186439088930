package bsat

import (
	"sync/atomic"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/hashfam"
	"unigen/internal/sat"
)

// byteSource turns fuzz input into small integers; past the end it
// yields zeros, so every input decodes to some schedule.
type byteSource struct {
	b []byte
	i int
}

func (bs *byteSource) next(n int) int {
	if bs.i >= len(bs.b) {
		return 0
	}
	v := int(bs.b[bs.i]) % n
	bs.i++
	return v
}

func (bs *byteSource) bit() bool { return bs.next(2) == 1 }

// fuzzOptionSets are the solver configurations the fuzz target runs
// under: the default and each non-default knob on its own.
var fuzzOptionSets = []sat.Config{
	{},
	{ScalarXOR: true},
	{GaussJordan: true},
}

// Budget modes of one fuzzed call.
const (
	modeUnlimited = iota
	modeOneConflict
	modeInterrupted
	numModes
)

// FuzzSessionEnumerate drives one bsat.Session through a schedule of
// cells — hash rows (empty rows included), standing assumptions,
// cut-offs and budget modes — on tiny CNF+XOR formulas, and checks each
// call against brute force: the witnesses are distinct models of the
// cell, the whole projected cell when Exhausted, exactly n of them when
// cut off, and the Exhausted / BudgetExceeded verdicts fit the budget
// mode. After every call an unconstrained full enumeration on the same
// session must still return every projected model of the formula.
func FuzzSessionEnumerate(f *testing.F) {
	f.Add([]byte{5, 6, 2, 1, 3, 0, 7, 1, 2, 0, 3, 1, 4, 1, 1, 9, 0, 2, 5, 1, 1})
	f.Add([]byte{11, 20, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 2, 1, 0, 3, 2, 1, 1, 0, 0, 1, 2})
	f.Add([]byte{3, 0, 0, 1, 2, 2, 1, 0, 0, 0, 1, 0, 0, 2, 0, 1})
	f.Add([]byte{7, 9, 1, 3, 3, 2, 2, 1, 1, 0, 5, 4, 3, 2, 1, 0, 2, 3, 1, 1, 4, 0, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 0, 1, 1})
	// Hash rows the session reduces before installing: a third row that
	// is the sum of the first two, then two equal rows with opposite
	// right-hand sides (an empty cell), under a standing assumption.
	f.Add([]byte{3, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1,
		3, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 9, 0,
		2, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 2, 0, 4, 0})
	// The same on a projected sampling set with a native XOR and the
	// scalar engine: a dependent triple, a contradicting duplicate over
	// every variable, and a duplicated row under an assumption and a
	// cut-off of one.
	f.Add([]byte{5, 2, 2, 0, 0, 2, 1, 4, 0, 1, 1, 1, 5, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 1, 2,
		3, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 9, 0,
		3, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 2, 0,
		2, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		bs := &byteSource{b: data}
		fm := fuzzFormula(bs)
		vars := fm.SamplingVars()
		cfg := fuzzOptionSets[bs.next(len(fuzzOptionSets))]
		var intr atomic.Bool
		cfg.Interrupt = &intr
		se := NewSession(fm, Options{Solver: cfg})
		models := sat.BruteForceModels(fm)
		full := projections(models, vars, nil, nil)
		for call, calls := 0, 1+bs.next(6); call < calls; call++ {
			h := fuzzHash(bs, fm, vars)
			assumps := fuzzAssumptions(bs, fm.NumVars)
			n := 1 + bs.next(10)
			mode := bs.next(numModes)
			want := projections(models, vars, h, assumps)

			se.SetAssumptions(assumps)
			switch mode {
			case modeOneConflict:
				se.SetBudgets(1, 0)
			case modeInterrupted:
				intr.Store(true)
			}
			res := se.Enumerate(n, h)
			intr.Store(false)
			se.SetBudgets(0, 0)
			se.SetAssumptions(nil)

			got := map[string]bool{}
			for _, w := range res.Witnesses {
				k := w.Project(vars)
				if got[k] {
					t.Fatalf("call %d: witness %s repeated", call, k)
				}
				got[k] = true
				if !want[k] {
					t.Fatalf("call %d: witness %s is not a model of the cell", call, k)
				}
				if !w.Satisfies(fm) {
					t.Fatalf("call %d: witness %s violates the formula", call, k)
				}
			}
			if res.Exhausted && res.BudgetExceeded {
				t.Fatalf("call %d: both Exhausted and BudgetExceeded", call)
			}
			switch {
			case res.Exhausted:
				if len(got) != len(want) {
					t.Fatalf("call %d: Exhausted with %d of %d projected models", call, len(got), len(want))
				}
			case res.BudgetExceeded:
				if mode == modeUnlimited {
					t.Fatalf("call %d: BudgetExceeded without a budget", call)
				}
				if len(got) >= n {
					t.Fatalf("call %d: BudgetExceeded after reaching the cut-off", call)
				}
			default:
				if len(got) != n {
					t.Fatalf("call %d: stopped at %d witnesses without a verdict, cut-off %d", call, len(got), n)
				}
			}
			if mode == modeUnlimited && len(got) != min(n, len(want)) {
				t.Fatalf("call %d: %d witnesses, want min(%d, %d)", call, len(got), n, len(want))
			}
			if mode == modeInterrupted && len(got) != 0 {
				t.Fatalf("call %d: %d witnesses under a raised interrupt", call, len(got))
			}

			// The session must still serve a plain full enumeration.
			again := se.Enumerate(len(full)+1, nil)
			if !again.Exhausted || len(again.Witnesses) != len(full) {
				t.Fatalf("call %d: follow-up enumeration found %d of %d models (exhausted=%v)",
					call, len(again.Witnesses), len(full), again.Exhausted)
			}
			for _, w := range again.Witnesses {
				if !full[w.Project(vars)] {
					t.Fatalf("call %d: follow-up witness %s is not a model", call, w.Project(vars))
				}
			}
		}
	})
}

// fuzzFormula decodes a CNF+XOR formula over at most 12 variables with
// an optional sampling set, possibly listing a variable twice.
func fuzzFormula(bs *byteSource) *cnf.Formula {
	nv := 1 + bs.next(12)
	fm := cnf.New(nv)
	for i, m := 0, bs.next(2*nv+1); i < m; i++ {
		c := make(cnf.Clause, 1+bs.next(3))
		for j := range c {
			c[j] = cnf.MkLit(cnf.Var(1+bs.next(nv)), bs.bit())
		}
		fm.AddClauseLits(c)
	}
	for i, m := 0, bs.next(3); i < m; i++ {
		var xs []cnf.Var
		for v := 1; v <= nv; v++ {
			if bs.bit() {
				xs = append(xs, cnf.Var(v))
			}
		}
		if len(xs) > 0 {
			fm.AddXOR(xs, bs.bit())
		}
	}
	if bs.bit() {
		for v := 1; v <= nv; v++ {
			if bs.bit() {
				fm.SamplingSet = append(fm.SamplingSet, cnf.Var(v))
			}
		}
		if len(fm.SamplingSet) > 0 && bs.bit() {
			// "c ind" lines may repeat a variable.
			fm.SamplingSet = append(fm.SamplingSet, fm.SamplingSet[0])
		}
	}
	return fm
}

// fuzzHash decodes nil or up to three hash rows, over the sampling set
// or over every variable of the formula. Rows may be empty.
func fuzzHash(bs *byteSource, fm *cnf.Formula, vars []cnf.Var) *hashfam.Hash {
	m := bs.next(4)
	if m == 0 {
		return nil
	}
	hv := vars
	if bs.bit() {
		hv = make([]cnf.Var, fm.NumVars)
		for i := range hv {
			hv[i] = cnf.Var(i + 1)
		}
	}
	h := &hashfam.Hash{Vars: hv, Rows: make([]gf2.Row, m)}
	for i := range h.Rows {
		r := gf2.NewRow(len(hv))
		for c := range hv {
			if bs.bit() {
				r.Set(c)
			}
		}
		r.RHS = bs.bit()
		h.Rows[i] = r
	}
	return h
}

// fuzzAssumptions decodes up to two standing assumption literals.
func fuzzAssumptions(bs *byteSource, nv int) []cnf.Lit {
	var out []cnf.Lit
	for i, k := 0, bs.next(3); i < k; i++ {
		out = append(out, cnf.MkLit(cnf.Var(1+bs.next(nv)), bs.bit()))
	}
	return out
}

// projections returns the distinct projections onto vars of the models
// that lie in h's cell (h may be nil) and satisfy every assumption.
func projections(models []cnf.Assignment, vars []cnf.Var, h *hashfam.Hash, assumps []cnf.Lit) map[string]bool {
	out := map[string]bool{}
next:
	for _, m := range models {
		for _, l := range assumps {
			if m.Get(l.Var()) == l.Neg() {
				continue next
			}
		}
		if h != nil && !h.Evaluate(m) {
			continue
		}
		out[m.Project(vars)] = true
	}
	return out
}
