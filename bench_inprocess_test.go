// BenchmarkInprocess (experiment E15 of DESIGN.md §4) measures the
// default solver on the per-cell enumeration pattern of E10: draw an
// m-row XOR hash, enumerate up to hiThresh+1 witnesses on an incremental
// session, repeat. It covers both hash regimes: short rows over the
// sampling set, and long rows over the full support. ns/op,
// conflicts/call and props/call form the raw-solver-speed trajectory.
// The benchmark once compared an "on" arm of optional heuristics
// (inprocessing, rephasing, chronological backtracking and a level-0
// XOR scan window) that lost in both regimes and was retired (DESIGN.md
// §11); the rows keep their "/off" names so their series continue.
package unigen

import (
	"strings"
	"testing"

	"unigen/internal/benchgen"
	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
)

func BenchmarkInprocess(b *testing.B) {
	for _, tc := range []struct {
		name    string
		m       int  // hash bits per cell
		fullSup bool // hash over the full support instead of the sampling set
	}{
		// UniGen regime: short rows over the independent support.
		{"EnqueueSeqSK", 8, false},
		{"case110", 8, false},
		// Full-support regime: long rows, m past log₂|R_F|, mostly
		// empty-cell UNSAT proofs — the workload where conflict-clause
		// quality and XOR scan width dominate.
		{"EnqueueSeqSK-fullsup", 16, true},
		{"case110-fullsup", 16, true},
	} {
		inst, err := benchgen.Generate(strings.TrimSuffix(tc.name, "-fullsup"), benchgen.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		hashVars := inst.F.SamplingVars()
		if tc.fullSup {
			hashVars = make([]cnf.Var, inst.F.NumVars)
			for i := range hashVars {
				hashVars[i] = cnf.Var(i + 1)
			}
		}
		const hiThresh = 88
		b.Run(tc.name+"/off", func(b *testing.B) {
			rng := randx.New(benchSeed)
			sess := bsat.NewSession(inst.F, bsat.Options{Solver: benchSolverCfg()})
			var conflicts, props int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := hashfam.Draw(rng, hashVars, tc.m)
				res := sess.Enumerate(hiThresh, h)
				if res.BudgetExceeded {
					b.Fatal("budget exceeded")
				}
				conflicts += res.Stats.Conflicts
				props += res.Stats.Propagations
			}
			b.StopTimer()
			b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/call")
			b.ReportMetric(float64(props)/float64(b.N), "props/call")
		})
	}
}
