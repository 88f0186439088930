package counter

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// ApproxMCOptions configures the approximate counter.
type ApproxMCOptions struct {
	// Epsilon is the tolerance: the estimate is within a (1+ε) factor of
	// |R_F| with probability at least 1-δ. UniGen invokes ApproxMC with
	// ε = 0.8.
	Epsilon float64
	// Delta is the error probability; UniGen uses δ = 0.2
	// ("confidence of 0.8" in the paper's wording).
	Delta float64
	// SamplingSet projects counting onto these variables; empty means
	// all variables.
	SamplingSet []cnf.Var
	// Solver configures the underlying BSAT calls.
	Solver sat.Config
	// MaxHashRounds caps the number of iterations (overriding the
	// δ-derived default) when > 0. Provided for benchmarks; leaving it 0
	// preserves the CP'13 guarantee.
	MaxHashRounds int
	// LeapFrog enables the CP'13 "leap-frogging" heuristic: each core
	// round starts its hash-count search near the previous round's
	// successful count instead of from 1. The DAC'14 experiments
	// DISABLE this because it nullifies the theoretical guarantees
	// (§4, Implementation issues); it is provided as an ablation knob
	// and is off by default.
	LeapFrog bool
}

// ApproxMCResult reports the estimate and diagnostics.
type ApproxMCResult struct {
	// Count is the median-of-medians estimate of |R_F↓S|.
	Count *big.Int
	// Exact is true when enumeration finished below the pivot, making
	// Count exact rather than approximate.
	Exact bool
	// Rounds is the number of ApproxMCCore iterations that returned an
	// estimate.
	Rounds int
	// AvgXORLen is the mean XOR length used across all hash draws.
	AvgXORLen float64
	// TotalXORRows is the total number of XOR constraints issued across
	// all rounds — a machine-independent work measure (used by the
	// leap-frogging ablation).
	TotalXORRows int
	// BSATCalls and Solver total the solver work of the run: the base
	// call and every hashed cell probe, failed rounds included. Solver
	// sums the per-call stats deltas (ArenaBytes: the largest footprint).
	BSATCalls int
	Solver    sat.Stats
}

// pivotAMC computes the cell-size threshold of CP'13:
// 2·⌈3√e·(1+1/ε)²⌉.
func pivotAMC(epsilon float64) int {
	return 2 * int(math.Ceil(3*math.Sqrt(math.E)*(1+1/epsilon)*(1+1/epsilon)))
}

// iterAMC computes the repetition count needed for confidence 1-δ:
// ⌈35·log₂(3/δ)⌉ (CP'13, Theorem 2).
func iterAMC(delta float64) int {
	return int(math.Ceil(35 * math.Log2(3/delta)))
}

// ApproxMC estimates |R_F↓S| within tolerance ε with confidence 1-δ by
// the algorithm of Chakraborty, Meel and Vardi (CP 2013): repeatedly
// partition the witness space with random XOR hashes until a randomly
// chosen cell is small, scale the cell size by the number of cells, and
// return the median across rounds. Leap-frogging is disabled, matching
// the DAC'14 experimental setup ("we disable this optimization since it
// nullifies the theoretical guarantees").
func ApproxMC(f *cnf.Formula, rng *randx.RNG, opts ApproxMCOptions) (ApproxMCResult, error) {
	vars := opts.SamplingSet
	if len(vars) == 0 {
		vars = f.SamplingVars()
	}
	opts.SamplingSet = vars

	// One incremental BSAT session serves the base call and every cell
	// probe of every round: the formula is ingested once and learned
	// clauses amortize across the whole leapfrog/linear search over m.
	sess := bsat.NewSession(f, bsat.Options{SamplingSet: vars, Solver: opts.Solver})
	return ApproxMCSession(sess, rng, opts)
}

// ApproxMCSession runs the ApproxMC algorithm on a caller-supplied
// session instead of building one. This is the conditioned-counting
// entry used by delta requests: a pooled session carrying standing
// assumption literals (bsat.Session.SetAssumptions) makes this count
// |R_{F∧A}↓S| — and because every cell probe is an exact bounded
// enumeration, the estimates (and hence the derived hash width q) are
// identical to a cold ApproxMC run over the conjoined formula at the
// same RNG, regardless of the session's accumulated solver state.
func ApproxMCSession(sess *bsat.Session, rng *randx.RNG, opts ApproxMCOptions) (ApproxMCResult, error) {
	if opts.Epsilon <= 0 {
		return ApproxMCResult{}, fmt.Errorf("counter: epsilon must be positive, got %v", opts.Epsilon)
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return ApproxMCResult{}, fmt.Errorf("counter: delta must be in (0,1), got %v", opts.Delta)
	}
	vars := opts.SamplingSet
	if len(vars) == 0 {
		vars = sess.SamplingSet()
	}
	pivot := pivotAMC(opts.Epsilon)
	t := iterAMC(opts.Delta)
	if opts.MaxHashRounds > 0 && opts.MaxHashRounds < t {
		t = opts.MaxHashRounds
	}

	// Quick exit: if |R_F↓S| <= pivot the count is exact.
	n, res := sess.Count(pivot+1, nil)
	if res.BudgetExceeded {
		return ApproxMCResult{}, fmt.Errorf("counter: BSAT budget exhausted in ApproxMC base call")
	}
	out := ApproxMCResult{BSATCalls: 1, Solver: res.Stats}
	if n <= pivot {
		out.Count, out.Exact, out.Rounds = big.NewInt(int64(n)), true, 1
		return out, nil
	}

	var estimates []*big.Int
	var xorLenSum int64
	var xorRows int
	startAt := 1
	for round := 0; round < t; round++ {
		est, lastI, lenSum, rows, err := approxMCCore(sess, vars, pivot, startAt, rng, &out)
		if err != nil {
			return ApproxMCResult{}, err
		}
		xorLenSum += lenSum
		xorRows += rows
		if est != nil {
			estimates = append(estimates, est)
			if opts.LeapFrog && lastI > 2 {
				startAt = lastI - 1
			}
		} else if opts.LeapFrog {
			startAt = 1 // failed round: fall back to the full sweep
		}
	}
	if len(estimates) == 0 {
		return ApproxMCResult{}, fmt.Errorf("counter: every ApproxMC round failed")
	}
	sort.Slice(estimates, func(i, j int) bool { return estimates[i].Cmp(estimates[j]) < 0 })
	med := estimates[len(estimates)/2]
	out.Count, out.Rounds, out.TotalXORRows = med, len(estimates), xorRows
	if xorRows > 0 {
		out.AvgXORLen = float64(xorLenSum) / float64(xorRows)
	}
	return out, nil
}

// approxMCCore adds i = startAt, startAt+1, ... random XOR constraints
// until the cell becomes small enough, then scales. It returns the
// estimate (nil when the loop runs out of hash bits or hits an empty
// cell), the i at which it succeeded, and the exact XOR row/length
// totals issued. All cell probes run on the caller's incremental
// session; their solver work is added to work's BSATCalls and Solver.
func approxMCCore(sess *bsat.Session, vars []cnf.Var, pivot, startAt int, rng *randx.RNG, work *ApproxMCResult) (*big.Int, int, int64, int, error) {
	var lenSum int64
	rows := 0
	if startAt < 1 {
		startAt = 1
	}
	for i := startAt; i < len(vars); i++ {
		h := hashfam.Draw(rng, vars, i)
		lenSum += int64(h.TotalLen())
		rows += h.M()
		cnt, res := sess.Count(pivot+1, h)
		work.BSATCalls++
		work.Solver = work.Solver.Add(res.Stats)
		if res.BudgetExceeded {
			return nil, i, lenSum, rows, fmt.Errorf("counter: BSAT budget exhausted at %d hash bits", i)
		}
		if cnt >= 1 && cnt <= pivot {
			est := new(big.Int).Lsh(big.NewInt(int64(cnt)), uint(i))
			return est, i, lenSum, rows, nil
		}
		if cnt == 0 {
			// Cell empty: hash overshot; this round fails (CP'13 core
			// reports failure rather than continuing to add constraints).
			return nil, i, lenSum, rows, nil
		}
	}
	return nil, len(vars), lenSum, rows, nil
}
