package gf2

import "testing"

// solutionSet brute-forces the points of {0,1}^ncols (ncols ≤ 12, one
// word) satisfying every row, as a bitmap indexed by the point.
func solutionSet(rows []Row, ncols int) []bool {
	out := make([]bool, 1<<ncols)
	for pt := range out {
		out[pt] = true
		for _, r := range rows {
			if ParityAnd(r.Bits, []uint64{uint64(pt)}) != r.RHS {
				out[pt] = false
				break
			}
		}
	}
	return out
}

// FuzzEchelon decodes a system of up to 10 rows over at most 12 columns
// — fresh rows, duplicates (possibly with the opposite right-hand side)
// and sums of two earlier rows — and checks GaussJordan on a copy: the
// reduced system has the drawn system's brute-forced solution set, the
// conflict verdict holds exactly when that set is empty, and the result
// is in reduced row-echelon form (nonzero rows first, strictly rising
// pivots, each pivot column clear in every other row).
func FuzzEchelon(f *testing.F) {
	f.Add([]byte{7, 0, 0x5a, 1, 1, 0, 0, 2, 0, 1})
	f.Add([]byte{11, 0, 0xff, 0x0f, 0, 0x33, 0x01, 2, 0, 1, 1, 0, 1})
	f.Add([]byte{3, 1, 0, 0, 0, 1, 0, 1})
	f.Add([]byte{12, 0, 0x81, 0x08, 0, 0x42, 0x04, 0, 0x24, 0x02, 2, 0, 1, 2, 1, 2, 1, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		ncols := 1 + next()%12
		var rows []Row
		for len(data) > 0 && len(rows) < 10 {
			r := NewRow(ncols)
			switch kind := next() % 3; {
			case kind == 0 || len(rows) == 0: // fresh row
				r.Bits[0] = uint64(next()|next()<<8) & TailMask(ncols)
				r.RHS = next()&1 == 1
			case kind == 1: // duplicate, right-hand side possibly flipped
				r.Xor(rows[next()%len(rows)])
				r.RHS = r.RHS != (next()&1 == 1)
			default: // sum of two earlier rows
				r.Xor(rows[next()%len(rows)])
				r.Xor(rows[next()%len(rows)])
			}
			rows = append(rows, r)
		}
		work := make([]Row, len(rows))
		for i, r := range rows {
			work[i] = Row{Bits: append([]uint64(nil), r.Bits...), RHS: r.RHS}
		}
		conflict := GaussJordan(work, ncols)

		want, got := solutionSet(rows, ncols), solutionSet(work, ncols)
		empty := true
		for pt := range want {
			if want[pt] != got[pt] {
				t.Fatalf("point %b: drawn system %v, reduced system %v", pt, want[pt], got[pt])
			}
			empty = empty && !want[pt]
		}
		if conflict != empty {
			t.Fatalf("conflict=%v but the drawn system's solution set empty=%v", conflict, empty)
		}

		last := -1
		for i, r := range work {
			p := r.FirstSet()
			if p < 0 {
				for _, z := range work[i:] {
					if !z.Empty() {
						t.Fatalf("row %d: nonzero row after a zero row", i)
					}
				}
				break
			}
			if p <= last {
				t.Fatalf("row %d: pivot %d not after the previous pivot %d", i, p, last)
			}
			last = p
			for j, o := range work {
				if j != i && o.Get(p) {
					t.Fatalf("pivot column %d of row %d is set in row %d", p, i, j)
				}
			}
		}
	})
}
