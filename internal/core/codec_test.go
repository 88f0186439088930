package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
)

// hashingFormula has 2^10 witnesses projected on its sampling set —
// far above hiThresh for ε=6 — so NewSetup takes the ApproxMC path.
func hashingFormula() *cnf.Formula {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	return f
}

// easyFormula has 3 witnesses, well below hiThresh: the easy-case path.
func easyFormula() *cnf.Formula {
	f := cnf.New(2)
	f.AddClause(1, 2)
	return f
}

func buildSetup(t *testing.T, f *cnf.Formula) *Setup {
	t.Helper()
	su, err := NewSetup(f, randx.New(PrepSeed(f, nil)), Options{
		Epsilon:        6,
		ApproxMCRounds: 15,
	})
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	return su
}

func encode(t *testing.T, su *Setup) []byte {
	t.Helper()
	blob, err := su.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return blob
}

// sampleStream draws n rounds from a setup on a fresh session, the way
// the parallel engine schedules round i on stream i.
func sampleStream(t *testing.T, su *Setup, seed uint64, n int) []string {
	t.Helper()
	sess := su.NewSession()
	var st Stats
	out := make([]string, 0, n)
	vars := su.SamplingSet()
	for i := 0; len(out) < n; i++ {
		if i > 100*n {
			t.Fatalf("no %d samples in %d rounds", n, i)
		}
		w, err := su.SampleRoundSpan(sess, randx.Stream(seed, uint64(i)), &st, nil)
		if errors.Is(err, ErrFailed) {
			out = append(out, "⊥")
			continue
		}
		if err != nil {
			t.Fatalf("SampleRoundSpan: %v", err)
		}
		out = append(out, w.Project(vars))
	}
	return out
}

func TestSetupCodecRoundTripHashing(t *testing.T) {
	su := buildSetup(t, hashingFormula())
	blob := encode(t, su)
	if err := VerifySetupFrame(blob); err != nil {
		t.Fatalf("VerifySetupFrame on valid blob: %v", err)
	}

	got, err := DecodeSetup(blob, Options{Epsilon: 6})
	if err != nil {
		t.Fatalf("DecodeSetup: %v", err)
	}
	if got.spare != nil {
		t.Fatal("decoded setup must not carry a spare session")
	}
	if got.easySet != su.easySet || got.q != su.q {
		t.Fatalf("decoded easySet=%v q=%d, want %v %d", got.easySet, got.q, su.easySet, su.q)
	}
	if su.est == nil || got.est == nil || su.est.Cmp(got.est) != 0 {
		t.Fatalf("estimate %v → %v", su.est, got.est)
	}
	if got.base != su.base {
		t.Fatalf("base stats %+v → %+v", su.base, got.base)
	}
	if got.kp != su.kp {
		t.Fatalf("kappa/pivot %+v → %+v", su.kp, got.kp)
	}

	// Encode → Decode → Encode is a fixpoint.
	blob2 := encode(t, got)
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoded blob differs from original")
	}

	// The rehydrated setup serves the same witness stream: sessions are
	// built lazily and rounds are solver-history-independent.
	want := sampleStream(t, su, 2014, 6)
	have := sampleStream(t, got, 2014, 6)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("round %d: decoded setup sampled %q, want %q", i, have[i], want[i])
		}
	}
}

func TestSetupCodecRoundTripEasy(t *testing.T) {
	su := buildSetup(t, easyFormula())
	if !su.easySet {
		t.Fatal("fixture should take the easy-case path")
	}
	blob := encode(t, su)
	got, err := DecodeSetup(blob, Options{Epsilon: 6})
	if err != nil {
		t.Fatalf("DecodeSetup: %v", err)
	}
	if !got.easySet || len(got.easy) != len(su.easy) {
		t.Fatalf("decoded easy list %d entries, want %d", len(got.easy), len(su.easy))
	}
	// The full witness list survives in canonical order, so index picks
	// match without any re-enumeration (zero BSAT calls on rehydrate).
	for i := range su.easy {
		if !bytes.Equal(boolsToBytes(su.easy[i]), boolsToBytes(got.easy[i])) {
			t.Fatalf("easy witness %d differs", i)
		}
	}
	if c, exact := got.WitnessCount(); !exact || c.Int64() != int64(len(su.easy)) {
		t.Fatalf("WitnessCount = %v exact=%v, want %d exact", c, exact, len(su.easy))
	}
	want := sampleStream(t, su, 7, 5)
	have := sampleStream(t, got, 7, 5)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("round %d: decoded setup sampled %q, want %q", i, have[i], want[i])
		}
	}
	if blob2 := encode(t, got); !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoded blob differs from original")
	}
}

func TestSetupCodecUnsat(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1)
	f.AddClause(-1)
	su := buildSetup(t, f)
	got, err := DecodeSetup(encode(t, su), Options{Epsilon: 6})
	if err != nil {
		t.Fatalf("DecodeSetup: %v", err)
	}
	var st Stats
	if _, err := got.SampleRoundSpan(got.NewSession(), randx.New(1), &st, nil); !errors.Is(err, ErrUnsat) {
		t.Fatalf("sampling decoded UNSAT setup: %v, want ErrUnsat", err)
	}
}

func TestSetupCodecRejectsCorruption(t *testing.T) {
	blob := encode(t, buildSetup(t, hashingFormula()))

	// Every single-byte flip must be rejected (CRC or structure), and
	// must never panic.
	for i := 0; i < len(blob); i++ {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x40
		if _, err := DecodeSetup(mut, Options{}); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}

	// Every truncation must be rejected.
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeSetup(blob[:n], Options{}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if err := VerifySetupFrame(blob[:n]); err == nil {
			t.Fatalf("VerifySetupFrame accepted truncation to %d bytes", n)
		}
	}

	// Trailing garbage breaks the exact-length contract.
	if _, err := DecodeSetup(append(bytes.Clone(blob), 0), Options{}); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// A frame from a future codec version is a version-skew miss even
	// with a recomputed checksum.
	skew := bytes.Clone(blob)
	skew[4] = 0xFF
	body := len(skew) - 4
	patchCRC(skew, body)
	if err := VerifySetupFrame(skew); !errors.Is(err, ErrCodec) {
		t.Fatalf("version skew: %v, want ErrCodec", err)
	}
	// So is a well-formed frame of the previous version.
	old := v1Frame(blob)
	if err := VerifySetupFrame(old); !errors.Is(err, ErrCodec) {
		t.Fatalf("version 1 frame: %v, want ErrCodec", err)
	}
	if _, err := DecodeSetup(old, Options{}); !errors.Is(err, ErrCodec) {
		t.Fatalf("decoding version 1 frame: %v, want ErrCodec", err)
	}

	// Epsilon mismatch: a blob prepared for ε=6 cannot answer ε=7.
	if _, err := DecodeSetup(blob, Options{Epsilon: 7}); !errors.Is(err, ErrCodec) {
		t.Fatalf("epsilon mismatch: %v, want ErrCodec", err)
	}
}

func TestEncodedFingerprint(t *testing.T) {
	f := hashingFormula()
	blob := encode(t, buildSetup(t, f))
	fp, err := EncodedFingerprint(blob)
	if err != nil {
		t.Fatalf("EncodedFingerprint: %v", err)
	}
	if want := cnf.Fingerprint(f); fp != want {
		t.Fatalf("fingerprint %x, want %x", fp, want)
	}
	if _, err := EncodedFingerprint(blob[:8]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func boolsToBytes(a cnf.Assignment) []byte {
	out := make([]byte, len(a))
	for i, b := range a {
		if b {
			out[i] = 1
		}
	}
	return out
}

// patchCRC recomputes the trailer checksum over data[:body].
// v1Frame rewrites a current frame in the version 1 layout: six more
// zero u64 counters after the base stats counters, a matching payload
// length, and a valid checksum.
func v1Frame(blob []byte) []byte {
	body := len(blob) - 4
	tail := body - (4 + 1 + 4) // SetupRounds, EasyCase and Q follow the counters
	out := append(bytes.Clone(blob[:tail]), make([]byte, 6*8)...)
	out = append(out, blob[tail:body]...)
	binary.LittleEndian.PutUint16(out[4:], 1)
	binary.LittleEndian.PutUint32(out[6:], uint32(len(out)-setupHdrLen))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

func patchCRC(data []byte, body int) {
	crc := crc32.Checksum(data[:body], crcTable)
	binary.LittleEndian.PutUint32(data[body:], crc)
}
