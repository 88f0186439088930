package sat

import (
	"maps"
	"slices"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
)

// checkUnassigned recounts the non-selector variables without a value
// and compares the total against the solver's running count.
func checkUnassigned(t *testing.T, s *Solver, when string) {
	t.Helper()
	n := 0
	for v := 1; v <= s.numVars; v++ {
		if s.isSelector[v] == selNone && s.assigns[v] == lUndef {
			n++
		}
	}
	if n != s.unassigned {
		t.Fatalf("%s: unassigned count %d, recount %d", when, s.unassigned, n)
	}
}

func allVars(n int) []cnf.Var {
	vars := make([]cnf.Var, n)
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
	}
	return vars
}

// enumerateSel runs EnumerateModels under a fresh clause selector and
// returns the distinct projections found and the final status. The
// count invariant is checked at every model, where it must be zero.
func enumerateSel(t *testing.T, s *Solver, vars []cnf.Var, limit int) (map[string]bool, Status) {
	t.Helper()
	sel := s.NewClauseSelector()
	out := map[string]bool{}
	st := s.EnumerateModels([]cnf.Lit{sel.Lit()}, sel, vars, func(m cnf.Assignment) bool {
		checkUnassigned(t, s, "at a model")
		if s.unassigned != 0 {
			t.Fatalf("model reported with %d variables unassigned", s.unassigned)
		}
		key := m.Project(vars)
		if out[key] {
			t.Fatalf("model %s enumerated twice", key)
		}
		out[key] = true
		return len(out) < limit
	})
	checkUnassigned(t, s, "after EnumerateModels")
	s.Release(sel)
	checkUnassigned(t, s, "after Release")
	return out, st
}

func bruteSet(f *cnf.Formula, vars []cnf.Var) map[string]bool {
	out := map[string]bool{}
	for _, m := range BruteForceModels(f) {
		out[m.Project(vars)] = true
	}
	return out
}

// TestEnumerateModelsMatchesBruteForce enumerates random CNF+XOR
// formulas in one search and compares against the brute-force oracle,
// with a cut-off run and a second full run on the same solver.
func TestEnumerateModelsMatchesBruteForce(t *testing.T) {
	rng := randx.New(1207)
	for iter := 0; iter < 200; iter++ {
		n := 4 + rng.Intn(8)
		f := randomXORCNF(rng, n, rng.Intn(3*n), 3, rng.Intn(3))
		vars := allVars(n)
		if iter%2 == 1 {
			vars = vars[:n/2+1] // projected: blocking clauses over a subset
		}
		want := bruteSet(f, vars)
		s := New(f, Config{Seed: uint64(iter)})
		checkUnassigned(t, s, "after New")
		if len(want) > 1 {
			cut, st := enumerateSel(t, s, vars, len(want)-1)
			if st != Sat || len(cut) != len(want)-1 {
				t.Fatalf("iter %d: cut-off run: status %v, %d models, want Sat and %d", iter, st, len(cut), len(want)-1)
			}
			for k := range cut {
				if !want[k] {
					t.Fatalf("iter %d: cut-off run found non-model %s", iter, k)
				}
			}
		}
		got, st := enumerateSel(t, s, vars, 1<<20)
		if st != Unsat {
			t.Fatalf("iter %d: full run ended %v, want Unsat", iter, st)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("iter %d: %d models, brute force has %d", iter, len(got), len(want))
		}
	}
}

// decide opens a new decision level, asserts l there and propagates.
func decide(t *testing.T, s *Solver, l cnf.Lit) {
	t.Helper()
	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(l, reason{})
	if !s.propagate().none() {
		t.Fatalf("deciding %v conflicted", l)
	}
}

// TestBlockModelUniqueTop: on the sampling-set fallback (no assumption
// levels, so the selector's own level counts as a decision outside the
// sampling set), the top literal is alone on its level, so blockModel
// undoes to the second-highest level and asserts it there.
func TestBlockModelUniqueTop(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(-1, 2) // 1 → 2
	s := New(f, Config{})
	sel := s.NewClauseSelector()
	decide(t, s, sel.Lit()) // level 1
	decide(t, s, cnf.MkLit(1, false))
	decide(t, s, cnf.MkLit(3, false)) // level 3: only var 3
	s.blockModel(sel, allVars(3), 0)
	checkUnassigned(t, s, "after blockModel")
	if s.decisionLevel() != 2 {
		t.Fatalf("backjumped to level %d, want 2", s.decisionLevel())
	}
	if s.value(cnf.MkLit(3, true)) != lTrue || s.level[3] != 2 || s.reasons[3].tag != reasonClause {
		t.Fatal("top literal ¬3 not asserted at level 2 by the blocking clause")
	}
	if len(sel.cls) != 1 {
		t.Fatalf("selector holds %d clauses, want 1", len(sel.cls))
	}
}

// TestBlockModelTie: on the sampling-set fallback, two literals share
// the top level, so blockModel undoes to one level below it and leaves
// both unassigned and watched.
func TestBlockModelTie(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(-1, 2) // 1 → 2: both land on the decision's level
	s := New(f, Config{})
	sel := s.NewClauseSelector()
	decide(t, s, sel.Lit())
	decide(t, s, cnf.MkLit(3, false))
	decide(t, s, cnf.MkLit(1, false)) // level 3: vars 1 and 2
	s.blockModel(sel, allVars(3), 0)
	checkUnassigned(t, s, "after blockModel")
	if s.decisionLevel() != 2 {
		t.Fatalf("backjumped to level %d, want 2", s.decisionLevel())
	}
	cr := sel.cls[0]
	for k := 0; k < 2; k++ {
		if l := s.ca.lit(cr, k); s.value(l) != lUndef || l.Var() == 3 {
			t.Fatalf("watched literal %d (%v) is assigned or not from the top level", k, l)
		}
	}
	if !s.propagate().none() {
		t.Fatal("propagation after a tie backjump conflicted")
	}
	// Finish the enumeration from here: 1∧2∧3 is blocked, so exactly
	// the remaining models under the selector must follow.
	got := map[string]bool{}
	st := s.EnumerateModels([]cnf.Lit{sel.Lit()}, sel, allVars(3), func(m cnf.Assignment) bool {
		got[m.Project(allVars(3))] = true
		return true
	})
	if st != Unsat || len(got) != 5 || got["111"] {
		t.Fatalf("continued enumeration: %v with %d models %v, want Unsat and the other 5", st, len(got), got)
	}
}

// clauseLits returns the literals of arena clause cr.
func clauseLits(s *Solver, cr CRef) []cnf.Lit {
	out := make([]cnf.Lit, s.ca.size(cr))
	for k := range out {
		out[k] = s.ca.lit(cr, k)
	}
	return out
}

// sameLits reports whether a and b hold the same literals in any order.
func sameLits(a, b []cnf.Lit) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestBlockModelDecisionClause: every decision above the assumption
// level is on a sampling variable, so the blocking clause is ¬sel plus
// the negated decisions — not the implied literal 2 — and the backjump
// asserts the top decision's negation without a conflict.
func TestBlockModelDecisionClause(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(-1, 2) // 1 → 2: implied on the decision's level
	s := New(f, Config{})
	sel := s.NewClauseSelector()
	decide(t, s, sel.Lit()) // level 1: the assumption
	decide(t, s, cnf.MkLit(3, false))
	decide(t, s, cnf.MkLit(1, false)) // level 3: vars 1 and 2
	conflicts := s.stats.Conflicts
	s.blockModel(sel, allVars(3), 1)
	checkUnassigned(t, s, "after blockModel")
	want := []cnf.Lit{sel.Lit().Not(), cnf.MkLit(1, true), cnf.MkLit(3, true)}
	if len(sel.cls) != 1 || !sameLits(clauseLits(s, sel.cls[0]), want) {
		t.Fatalf("blocking clause %v, want %v", clauseLits(s, sel.cls[0]), want)
	}
	if s.decisionLevel() != 2 {
		t.Fatalf("backjumped to level %d, want 2", s.decisionLevel())
	}
	if s.value(cnf.MkLit(1, true)) != lTrue || s.level[1] != 2 || s.reasons[1].tag != reasonClause {
		t.Fatal("¬1 not asserted at level 2 by the blocking clause")
	}
	if !s.propagate().none() || s.stats.Conflicts != conflicts {
		t.Fatal("the asserting backjump led to a conflict")
	}
	got := map[string]bool{}
	st := s.EnumerateModels([]cnf.Lit{sel.Lit()}, sel, allVars(3), func(m cnf.Assignment) bool {
		got[m.Project(allVars(3))] = true
		return true
	})
	if st != Unsat || len(got) != 5 || got["111"] {
		t.Fatalf("continued enumeration: %v with %d models %v, want Unsat and the other 5", st, len(got), got)
	}
}

// TestBlockModelNonSamplingDecision: a decision on variable 1, outside
// the sampling set {2, 3}, falls back to the sampling-set clause.
func TestBlockModelNonSamplingDecision(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(-1, 2) // 1 → 2
	s := New(f, Config{})
	sel := s.NewClauseSelector()
	vars := []cnf.Var{2, 3}
	decide(t, s, sel.Lit())
	decide(t, s, cnf.MkLit(3, false))
	decide(t, s, cnf.MkLit(1, false)) // level 3: vars 1 and 2
	s.blockModel(sel, vars, 1)
	want := []cnf.Lit{sel.Lit().Not(), cnf.MkLit(2, true), cnf.MkLit(3, true)}
	if len(sel.cls) != 1 || !sameLits(clauseLits(s, sel.cls[0]), want) {
		t.Fatalf("blocking clause %v, want the sampling-set clause %v", clauseLits(s, sel.cls[0]), want)
	}
	if s.decisionLevel() != 2 || s.value(cnf.MkLit(2, true)) != lTrue {
		t.Fatal("¬2 not asserted at level 2")
	}
}

// TestBlockModelNoDecision: the assumptions alone determine the model,
// so the decision clause is ¬sel by itself: it is fixed at level 0 and
// the cell is exhausted.
func TestBlockModelNoDecision(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(-1, 2)
	f.AddClause(-1, 3)
	s := New(f, Config{})
	sel := s.NewClauseSelector()
	decide(t, s, cnf.MkLit(1, false)) // level 1: a standing assumption
	decide(t, s, sel.Lit())           // level 2: the selector
	s.blockModel(sel, allVars(3), 2)
	if s.decisionLevel() != 0 || len(sel.cls) != 0 {
		t.Fatalf("level %d with %d stored clauses, want level 0 and none", s.decisionLevel(), len(sel.cls))
	}
	if v := sel.Lit().Var(); s.valueVar(v) != lFalse || s.level[v] != 0 {
		t.Fatal("selector not fixed off at level 0")
	}
	s.Release(sel)
	sel = s.NewClauseSelector()
	models := 0
	st := s.EnumerateModels([]cnf.Lit{cnf.MkLit(1, false), sel.Lit()}, sel, allVars(3), func(cnf.Assignment) bool {
		models++
		return true
	})
	if st != Unsat || models != 1 {
		t.Fatalf("status %v after %d models, want Unsat after 1", st, models)
	}
}

// TestBlockModelBaseAssumptions: standing assumption literals ahead of
// the selector occupy assumption levels, so their variables stay out of
// the decision clause even when they are sampling variables.
func TestBlockModelBaseAssumptions(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(-1, 2)
	s := New(f, Config{})
	sel := s.NewClauseSelector()
	base := cnf.MkLit(3, false)
	decide(t, s, base)      // level 1: delta base literal on a sampling variable
	decide(t, s, sel.Lit()) // level 2: the selector
	decide(t, s, cnf.MkLit(1, false))
	s.blockModel(sel, allVars(3), 2)
	want := []cnf.Lit{sel.Lit().Not(), cnf.MkLit(1, true)}
	if len(sel.cls) != 1 || !sameLits(clauseLits(s, sel.cls[0]), want) {
		t.Fatalf("blocking clause %v, want %v", clauseLits(s, sel.cls[0]), want)
	}
	if s.decisionLevel() != 2 || s.value(cnf.MkLit(1, true)) != lTrue {
		t.Fatal("¬1 not asserted at the selector's level")
	}
}

// TestEnumerateModelsUnderAssumptions enumerates random CNF+XOR
// formulas under random standing assumption literals placed before the
// selector, and compares against brute force over the formula with
// those literals as units.
func TestEnumerateModelsUnderAssumptions(t *testing.T) {
	rng := randx.New(1301)
	for iter := 0; iter < 150; iter++ {
		n := 4 + rng.Intn(8)
		f := randomXORCNF(rng, n, rng.Intn(2*n), 3, rng.Intn(3))
		vars := allVars(n)
		if iter%2 == 1 {
			vars = vars[:n/2+1]
		}
		var base []cnf.Lit
		g := f.Clone()
		for k := rng.Intn(3); k > 0; k-- {
			l := cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Bool())
			base = append(base, l)
			g.AddClauseLits(cnf.Clause{l})
		}
		want := bruteSet(g, vars)
		s := New(f, Config{Seed: uint64(iter)})
		sel := s.NewClauseSelector()
		got := map[string]bool{}
		st := s.EnumerateModels(append(base, sel.Lit()), sel, vars, func(m cnf.Assignment) bool {
			key := m.Project(vars)
			if got[key] {
				t.Fatalf("iter %d: model %s enumerated twice", iter, key)
			}
			got[key] = true
			return true
		})
		if st != Unsat || !maps.Equal(got, want) {
			t.Fatalf("iter %d: %v with %d models, brute force has %d", iter, st, len(got), len(want))
		}
		checkUnassigned(t, s, "after EnumerateModels")
	}
}

// TestBlockModelLevel0Exhausts: every sampling literal is fixed at level
// 0, so only the selector literal is left; it is asserted at level 0
// and the cell is exhausted after one model.
func TestBlockModelLevel0Exhausts(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1)
	f.AddClause(-2)
	f.AddClause(3)
	s := New(f, Config{})
	sel := s.NewClauseSelector()
	models := 0
	st := s.EnumerateModels([]cnf.Lit{sel.Lit()}, sel, allVars(3), func(cnf.Assignment) bool {
		models++
		return true
	})
	if st != Unsat || models != 1 {
		t.Fatalf("status %v after %d models, want Unsat after 1", st, models)
	}
	if v := sel.Lit().Var(); s.valueVar(v) != lFalse || s.level[v] != 0 {
		t.Fatal("selector not fixed off at level 0")
	}
	if len(sel.cls) != 0 {
		t.Fatalf("a unit blocking clause was stored in the arena (%d clauses)", len(sel.cls))
	}
	checkUnassigned(t, s, "after exhaustion")
	s.Release(sel)
	if s.Solve() != Sat {
		t.Fatal("solver unusable after an exhausted cell")
	}
}

// TestUnassignedCountLifecycle keeps the running count exact through
// removable constraints, enumeration, Release, garbage collection,
// compaction and fresh builds (the session rebuild path,
// Gauss–Jordan units included).
func TestUnassignedCountLifecycle(t *testing.T) {
	rng := randx.New(77)
	for iter := 0; iter < 40; iter++ {
		n := 6 + rng.Intn(6)
		f := randomXORCNF(rng, n, rng.Intn(2*n), 3, rng.Intn(3))
		cfg := Config{Seed: uint64(iter), GaussJordan: iter%2 == 0}
		s := New(f, cfg)
		checkUnassigned(t, s, "after New")
		vars := allVars(n)
		for cell := 0; cell < 4; cell++ {
			xs := s.AddXORRemovable(vars[:1+rng.Intn(n)], rng.Bool())
			cs := s.AddClauseRemovable(cnf.Clause{cnf.MkLit(vars[rng.Intn(n)], rng.Bool())})
			checkUnassigned(t, s, "after adding removables")
			sel := s.NewClauseSelector()
			s.EnumerateModels([]cnf.Lit{xs.Lit(), cs.Lit(), sel.Lit()}, sel, vars, func(cnf.Assignment) bool {
				checkUnassigned(t, s, "at a model")
				return true
			})
			checkUnassigned(t, s, "after EnumerateModels")
			s.Release(xs)
			s.Release(cs)
			s.Release(sel)
			checkUnassigned(t, s, "after Release")
			s.CollectGarbage()
			s.CompactArena()
			checkUnassigned(t, s, "after GC")
			if s.Tainted() {
				s = New(f, cfg)
				checkUnassigned(t, s, "after rebuild")
			}
		}
	}
}
