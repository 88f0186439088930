package main

import (
	"fmt"

	"unigen/internal/benchgen"
	"unigen/internal/cnf"
)

// workload is one traffic mix. Every workload is a closed loop: each of
// its clients sends its next request only after the previous reply
// arrived, as a regression farm pulling stimuli does.
type workload struct {
	name    string
	clients int
	// n and workers shape each POST /sample; n == 0 marks a /count
	// workload.
	n, workers int
	// corpus is the fixed set of formulas a sampling workload prepares
	// during set-up and then requests round-robin.
	corpus []corpusEntry
	// coldSpecs are the benchgen generators a /count workload rotates
	// through, each request with a fresh generator seed.
	coldSpecs []string
	// cacheSize is the service's RAM LRU bound (0 = service default).
	cacheSize int
	// amcRounds caps the service's set-up ApproxMC iterations, as
	// unigend -amc-rounds does (0 = the paper's confidence, 137 rounds).
	amcRounds int
}

// corpusEntry names one benchgen instance. fullSupport drops the
// instance's "c ind" sampling set, so UniGen hashes over all of X.
type corpusEntry struct {
	spec        string
	fullSupport bool
}

// corpusGenSeed fixes the generator seed of the sampling corpora: the
// corpus is the same on every run, and --seed varies only the request
// seeds, so runs with different seeds measure the same formulas.
const corpusGenSeed = 1

var workloads = []workload{
	{
		name: "warm-sample", clients: 1, n: 16, workers: 2,
		corpus: []corpusEntry{{spec: "case110"}, {spec: "s1196a_7_4"}, {spec: "Case121"}, {spec: "LLReverse"}},
	},
	{
		name: "fullsup-sample", clients: 2, n: 4, workers: 1,
		corpus: []corpusEntry{{spec: "s1196a_7_4", fullSupport: true}, {spec: "Case121", fullSupport: true}},
	},
	{
		name: "cold-prepare", clients: 1,
		coldSpecs: []string{"Case121", "s526_3_2", "Case1_b11_1"},
		cacheSize: 4,
		// At the paper's confidence a cold prepare takes about a second,
		// so a window would hold ten requests; fifteen rounds keep every
		// step of a prepare and bring it near 0.1 s (see NOTES.md).
		amcRounds: 15,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is one generated formula: its DIMACS text (the only thing the
// service receives) and the parsed formula the checks run against. name
// identifies the formula; group is its generator, the unit latencies
// are summarized over.
type input struct {
	name  string
	group string
	text  string
	f     *cnf.Formula
}

// generateText builds one benchgen instance and keeps only its DIMACS
// text.
func generateText(spec string, genSeed uint64, fullSupport bool) (input, error) {
	inst, err := benchgen.Generate(spec, benchgen.ScaleSmall, genSeed)
	if err != nil {
		return input{}, err
	}
	group := spec
	if fullSupport {
		inst.F.SamplingSet = nil
		group += "/fullsup"
	}
	return input{name: fmt.Sprintf("%s@%d", group, genSeed), group: group, text: cnf.DIMACSString(inst.F)}, nil
}

// generate is generateText plus the formula parsed back from the text,
// which the checks run against.
func generate(spec string, genSeed uint64, fullSupport bool) (input, error) {
	in, err := generateText(spec, genSeed, fullSupport)
	if err != nil {
		return input{}, err
	}
	if in.f, err = cnf.ParseDIMACSString(in.text); err != nil {
		return input{}, fmt.Errorf("%s: re-parsing generated DIMACS: %w", in.name, err)
	}
	return in, nil
}

// corpusInputs builds a sampling workload's fixed corpus.
func (w workload) corpusInputs() ([]input, error) {
	out := make([]input, 0, len(w.corpus))
	for _, c := range w.corpus {
		in, err := generate(c.spec, corpusGenSeed, c.fullSupport)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// coldInput builds the k-th never-seen formula of a /count workload:
// specs rotate, and each request gets its own generator seed derived
// from the workload seed. It keeps only the text: the window does not
// pay for parsing it, and the hundreds of formulas a window sends do
// not inflate max_rss_mb.
func (w workload) coldInput(seed uint64, k int) (input, error) {
	return generateText(w.coldSpecs[k%len(w.coldSpecs)], mix(seed, uint64(k)+1<<32), false)
}

// groups is the number of input groups a workload's requests rotate
// over: its corpus formulas, or its cold generators.
func (w workload) groups() int {
	if w.n > 0 {
		return len(w.corpus)
	}
	return len(w.coldSpecs)
}

// formula returns the parsed formula, parsing the text again when the
// input kept only its text.
func (in input) formula() (*cnf.Formula, error) {
	if in.f != nil {
		return in.f, nil
	}
	return cnf.ParseDIMACSString(in.text)
}

// mix derives a 64-bit value from a seed and an index (splitmix64
// finalizer), so request seeds and generator seeds are spread out but
// reproducible from --seed alone.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
