package core

import (
	"reflect"
	"testing"

	"unigen/internal/bsat"
	"unigen/internal/counter"
	"unigen/internal/randx"
)

// TestSetupStatsIncludeApproxMC checks that a hashed prepare's setup
// stats carry ApproxMC's solver work — its base call and every hashed
// cell probe — on top of the easy-case probe. Both halves are replayed
// in order on one fresh session with the same RNG, as NewSetup runs
// them, so the expected totals are exact.
func TestSetupStatsIncludeApproxMC(t *testing.T) {
	f := hardFormula()
	opts := Options{Epsilon: 6, ApproxMCRounds: 15}
	su, err := NewSetup(f, randx.New(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	got := su.SetupStats()
	if got.EasyCase {
		t.Fatal("expected the hashing path")
	}
	if got.BSATCalls <= 1 {
		t.Fatalf("setup BSATCalls = %d after a hashed prepare, want > 1", got.BSATCalls)
	}

	sess := bsat.NewSession(f, bsat.Options{SamplingSet: f.SamplingVars()})
	probe := sess.Enumerate(su.KappaPivot().HiThresh+1, nil)
	amc, err := counter.ApproxMCSession(sess, randx.New(4), counter.ApproxMCOptions{
		Epsilon: 0.8, Delta: 0.2, SamplingSet: f.SamplingVars(), MaxHashRounds: opts.ApproxMCRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if amc.BSATCalls < 2 || amc.Solver.Propagations == 0 {
		t.Fatalf("ApproxMC reports %d BSAT calls and %d propagations", amc.BSATCalls, amc.Solver.Propagations)
	}
	want := Stats{BSATCalls: 1 + int64(amc.BSATCalls), SetupRounds: amc.Rounds, Q: got.Q}
	want.addSolverStats(probe.Stats)
	want.addSolverStats(amc.Solver)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("setup stats\n got %+v\nwant %+v", got, want)
	}
}

// TestSetupStatsEasyCase checks that an easy-case prepare, which runs
// no ApproxMC, reports exactly its one enumeration call.
func TestSetupStatsEasyCase(t *testing.T) {
	f := hardFormula()
	f.SamplingSet = f.SamplingSet[:3] // 8 witnesses: below hiThresh
	su, err := NewSetup(f, randx.New(4), Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if st := su.SetupStats(); !st.EasyCase || st.BSATCalls != 1 {
		t.Fatalf("easy setup: EasyCase=%v BSATCalls=%d, want true and 1", st.EasyCase, st.BSATCalls)
	}
}
