package unigen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"unigen/internal/benchgen"
)

// Pinned witness streams. Each digest is the SHA-256 of a fixed-seed
// SampleN witness sequence, projected onto the sampling set and rendered
// as one bitstring per line. A solver change that alters which witnesses
// a seed yields (search order, enumeration strategy, budget semantics)
// must either keep these digests or justify re-pinning them: accepted
// cells are enumerated exhaustively and canonically sorted, so the
// stream depends on cell contents only, never on how the solver found
// them.
const (
	pinSeed    = 0x91e5
	pinN       = 10
	pinRounds  = 15 // ApproxMC rounds at setup; keeps the test fast
	pinGenSeed = benchSeed
)

var pinnedStreams = map[string]string{
	"case110/ind":       "4c4c01aeb8b7cfa034839cfce5df1a94720890d70ab33ec95689f7aea30de2ec",
	"case110/fullsup":   "82f58efaddab83f2f3c273197daaf447c0b85e8691062f9eecd352c09dc3f0ab",
	"Case121/ind":       "cfe2392d15b6efc4afa240d28acf565d5367d7b517033ab732ffa1311be8fd79",
	"Case121/fullsup":   "2dff699214f3336670443f24145d209119afb31d19abb52c3070ea1365f18ac2",
	"Case121/ind/delta": "8b609b36a6b6d7648c514eda54161e69a2eeafa1e16444790d96429c944169d7",
	"LLReverse/ind":     "8350a1b81a3f7c28f8b2c76c07259ddab0f26994bc84b10764bedc010eb37b21",
	"Case121/halfind":   "195c5626358f5fe3ac58f3b6da0ca834bf553766dbad572ed47f9178d767f700",
}

// Sampling-set modes of a pinned instance.
const (
	pinInd     = "ind"     // the generator's "c ind" independent support
	pinFullsup = "fullsup" // "c ind" stripped: full-support hashing
	pinHalfind = "halfind" // the first half of "c ind": a projection that is not an independent support
)

// pinInstance generates a benchgen small-scale instance with its
// sampling set in the given mode.
func pinInstance(t *testing.T, name, mode string) *Formula {
	t.Helper()
	inst, err := benchgen.Generate(name, benchgen.ScaleSmall, pinGenSeed)
	if err != nil {
		t.Fatal(err)
	}
	switch mode {
	case pinFullsup:
		inst.F.SamplingSet = nil
	case pinHalfind:
		inst.F.SamplingSet = inst.F.SamplingSet[:len(inst.F.SamplingSet)/2]
	}
	return inst.F
}

// writeStream renders witnesses over the formula's sampling set into h.
func writeStream(h hash.Hash, f *Formula, ws []Witness) {
	vars := f.SamplingVars()
	for _, w := range ws {
		for _, b := range w.Bits(vars) {
			if b {
				h.Write([]byte{'1'})
			} else {
				h.Write([]byte{'0'})
			}
		}
		h.Write([]byte{'\n'})
	}
}

func checkPinned(t *testing.T, key string, h hash.Hash) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	if want := pinnedStreams[key]; got != want {
		t.Errorf("%s: witness stream digest %s, pinned %s", key, got, want)
	}
}

// TestPinnedWitnessStreams checks the engine (1 and 2 workers) on
// case110 and Case121 with and without their sampling sets, on
// LLReverse (the corpus formula with the most native XOR clauses), and
// on Case121 projected onto half its support, where witnesses are not
// determined by the sampling variables alone.
func TestPinnedWitnessStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares six formulas twice")
	}
	for _, pin := range []struct{ name, mode string }{
		{"case110", pinInd}, {"case110", pinFullsup},
		{"Case121", pinInd}, {"Case121", pinFullsup},
		{"LLReverse", pinInd}, {"Case121", pinHalfind},
	} {
		key := pin.name + "/" + pin.mode
		f := pinInstance(t, pin.name, pin.mode)
		for _, workers := range []int{1, 2} {
			smp, err := NewSampler(f, Options{
				Epsilon: 6, Seed: pinSeed, Workers: workers, ApproxMCRounds: pinRounds,
			})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			ws, err := smp.SampleN(pinN)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h := sha256.New()
			writeStream(h, f, ws)
			checkPinned(t, key, h)
		}
	}
}

// TestPinnedDeltaStream checks one delta request: Case121 conditioned on
// two sampling-set literals, served on the prepared base.
func TestPinnedDeltaStream(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares a formula and a conditioned setup")
	}
	f := pinInstance(t, "Case121", pinInd)
	svc, err := NewService(ServiceOptions{Epsilon: 6, ApproxMCRounds: pinRounds, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	ctx := context.Background()
	if _, err := svc.Sample(ctx, f, pinSeed, 1); err != nil {
		t.Fatal(err)
	}
	s := f.SamplingVars()
	assumptions := []int{int(s[0]), -int(s[1])}
	ws, err := svc.SampleDelta(ctx, FormulaFingerprint(f), assumptions, pinSeed, pinN)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeStream(h, f, ws)
	checkPinned(t, "Case121/ind/delta", h)
}
