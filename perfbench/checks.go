package main

import (
	"fmt"
	"math/big"
	"slices"

	"unigen/internal/cnf"
	"unigen/internal/sat"
	"unigen/internal/service"
)

// minSuccessRatio is Theorem 1's floor on the probability that one
// UniGen round returns a witness rather than ⊥ (DAC'14: at least 0.62).
const minSuccessRatio = 0.62

// witnessChecker confirms that every returned witness extends to a model
// of its formula: one solve per distinct witness, with the witness's
// sampling-set values as assumptions.
type witnessChecker struct {
	solvers map[string]*sat.Solver
	seen    map[string]bool
}

func newWitnessChecker() *witnessChecker {
	return &witnessChecker{solvers: map[string]*sat.Solver{}, seen: map[string]bool{}}
}

// check validates one /sample reply for in and returns a description of
// the first defect, or "" when the reply is sound.
func (c *witnessChecker) check(in input, n int, resp *service.SampleHTTPResponse) string {
	f, err := in.formula()
	if err != nil {
		return fmt.Sprintf("%s: %v", in.name, err)
	}
	vars := f.SamplingVars()
	if len(resp.Vars) != len(vars) {
		return fmt.Sprintf("%s: reply has %d sampling vars, formula has %d", in.name, len(resp.Vars), len(vars))
	}
	for i, v := range vars {
		if resp.Vars[i] != int(v) {
			return fmt.Sprintf("%s: reply var %d is %d, want %d", in.name, i, resp.Vars[i], v)
		}
	}
	if len(resp.Witnesses) != n || resp.Stats.Samples != int64(n) {
		return fmt.Sprintf("%s: %d witnesses (%d samples) for n=%d", in.name, len(resp.Witnesses), resp.Stats.Samples, n)
	}
	s := c.solvers[in.name]
	if s == nil {
		s = sat.New(f, sat.Config{})
		c.solvers[in.name] = s
	}
	for _, w := range resp.Witnesses {
		key := in.name + "/" + w
		if c.seen[key] {
			continue
		}
		if len(w) != len(vars) {
			return fmt.Sprintf("%s: witness %q is not %d bits long", in.name, w, len(vars))
		}
		assumps := make([]cnf.Lit, len(vars))
		for i, v := range vars {
			assumps[i] = cnf.MkLit(v, w[i] == '0')
		}
		if st := s.Solve(assumps...); st != sat.Sat {
			return fmt.Sprintf("%s: witness %s does not extend to a model (%v)", in.name, w, st)
		}
		c.seen[key] = true
	}
	return ""
}

// checkCount validates one /count reply for a never-seen formula.
func checkCount(in input, resp *service.CountHTTPResponse) string {
	if resp.CacheHit {
		return fmt.Sprintf("%s: cold /count reported a cache hit", in.name)
	}
	c, ok := new(big.Int).SetString(resp.Count, 10)
	if !ok || c.Sign() <= 0 {
		return fmt.Sprintf("%s: count %q is not a positive integer", in.name, resp.Count)
	}
	return ""
}

// sameWitnesses reports whether two fixed-seed replies carry the same
// witness sequence.
func sameWitnesses(a, b *service.SampleHTTPResponse) bool {
	return slices.Equal(a.Vars, b.Vars) && slices.Equal(a.Witnesses, b.Witnesses)
}
