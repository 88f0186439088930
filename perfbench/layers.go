package main

import (
	"fmt"
	"math"
	"math/big"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/counter"
	"unigen/internal/hashfam"
	"unigen/internal/obs"
	"unigen/internal/randx"
	"unigen/internal/service"
)

// coldProbes is how many formulas of a traced cold-prepare window are
// sampled afterwards, so that the sampling layers report on cold
// formulas too (served from the store, no second prepare).
const coldProbes = 6

// traced is the --trace 1 run. It re-drives the end-to-end requests for
// one window, tracing every other round over the input groups (see
// window). The per-layer metrics come from the traced requests: the
// span trees the service returns (the "trace" echo of /sample, and
// GET /debug/requests for /count) and direct calls into the layers the
// spans do not cover. obs.trace_overhead_ratio compares the traced and
// the untraced requests of the same window.
func (b *bench) traced() ([]metric, error) {
	srv, _, err := b.setUp(false)
	if err != nil {
		return nil, err
	}
	tsrv := srv
	if b.w.n == 0 {
		// The ring is armed per service, not per request: traced cold
		// requests go to a second service that keeps every request.
		if tsrv, _, err = b.setUp(true); err != nil {
			return nil, err
		}
	}
	st0, err := tsrv.stats()
	if err != nil {
		return nil, err
	}
	p, err := b.window(srv, tsrv, time.Duration(b.cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	st1, err := tsrv.stats()
	if err != nil {
		return nil, err
	}
	var traced, plain []rec
	for _, r := range p.ok() {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	// A /count carries no sampling rounds: sample the first traced cold
	// formulas afterwards (traced, from the store tier) so every layer
	// below the service reports on this workload too.
	sampled, workers := traced, b.w.workers
	if b.w.n == 0 {
		sampled, workers = nil, 1
		for _, r := range traced[:min(coldProbes, len(traced))] {
			seed := mix(b.cfg.seed, 1<<41+uint64(r.k))
			resp, lat, id, err := tsrv.sample(r.in, 4, workers, seed, true)
			if err != nil {
				return nil, fmt.Errorf("cold sample probe: %w", err)
			}
			if msg := b.wc.check(r.in, 4, &resp); msg != "" {
				b.failOp("cold sample probe: %s", msg)
			}
			sampled = append(sampled, rec{k: r.k, in: r.in, seed: seed, lat: lat, traceID: id, sample: &resp})
		}
	}
	ring, err := tsrv.debugRequests()
	if err != nil {
		return nil, err
	}
	b.checkPass(srv, p)
	if err := srv.close(); err != nil {
		return nil, err
	}
	if tsrv != srv {
		if err := tsrv.close(); err != nil {
			return nil, err
		}
	}

	out := b.requestLayers(traced, ring, st0, st1)
	out = append(out, samplingLayers(sampled, workers)...)
	direct, err := b.directLayers(traced)
	if err != nil {
		return nil, err
	}
	out = append(out, direct...)
	lt, lp := perInputMedian(latencies(traced, false)), perInputMedian(latencies(plain, false))
	out = append(out, metric{"obs.trace_overhead_ratio", ratio(lt, lp), "ratio"})
	return out, nil
}

func usMS(us int64) float64 { return float64(us) / 1000 }

func child(sp *obs.SpanView, name string) *obs.SpanView {
	for _, c := range sp.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// walk calls fn on sp and every span below it.
func walk(sp *obs.SpanView, fn func(*obs.SpanView)) {
	if sp == nil {
		return
	}
	fn(sp)
	for _, c := range sp.Children {
		walk(c, fn)
	}
}

// selfUS is a span's duration minus the part its children cover.
func selfUS(sp *obs.SpanView) int64 {
	d := sp.DurUS
	for _, c := range sp.Children {
		d -= c.DurUS
	}
	return d
}

// requestLayers covers the transport, service and store layers from the
// span trees of the traced requests and the /stats counters of the
// service that traced them.
func (b *bench) requestLayers(traced []rec, ring []obs.RequestRecord, st0, st1 service.StatsHTTPResponse) []metric {
	byID := map[string]*obs.SpanView{}
	var store []float64
	for _, r := range ring {
		byID[r.TraceID] = r.Trace
		walk(r.Trace, func(sp *obs.SpanView) {
			if sp.Name == "store" {
				store = append(store, usMS(sp.DurUS))
			}
		})
	}
	var httpSelf, svcSelf, adm, prep []float64
	for _, r := range traced {
		root := byID[r.traceID]
		if r.sample != nil && r.sample.Trace != nil {
			root = r.sample.Trace
		}
		if root == nil {
			b.fail("%s: no span tree for trace %s", r.in.name, r.traceID)
			continue
		}
		httpSelf = append(httpSelf, ms(r.lat)-usMS(root.DurUS))
		svcSelf = append(svcSelf, usMS(selfUS(root)))
		if a := child(root, "admission"); a != nil {
			adm = append(adm, usMS(a.DurUS))
		}
		if p := child(root, "prepare"); p != nil {
			prep = append(prep, usMS(p.DurUS))
		}
	}
	hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses
	return []metric{
		{"http.self_ms_p50", median(httpSelf), "ms"},
		{"service.self_ms_p50", median(svcSelf), "ms"},
		{"service.admission_ms_p50", median(adm), "ms"},
		{"service.prepare_ms_p50", median(prep), "ms"},
		{"service.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio"},
		{"service.evictions", float64(st1.Evictions - st0.Evictions), "count"},
		{"store.probe_ms_p50", median(store), "ms"},
		{"store.writes", float64(st1.Store.Writes), "count"},
		{"store.write_errors", float64(st1.Store.WriteErrors), "count"},
		{"store.bytes", float64(st1.Store.Bytes), "bytes"},
	}
}

// samplingLayers covers the parallel engine, UniGen rounds, BSAT cells
// and the solver inside them from the "rounds" subtree of /sample span
// trees.
func samplingLayers(recs []rec, workers int) []metric {
	kp, _ := core.ComputeKappaPivot(6) // the service's default epsilon
	var busyUS, spanUS, samples, rounds float64
	var roundMS, coreSelf, cellMS []float64
	var cells, cellWit, inBand, conflicts, props, xorRows float64
	for _, r := range recs {
		samples += float64(r.sample.Stats.Samples)
		rounds += float64(r.sample.Stats.Rounds)
		rs := child(r.sample.Trace, "rounds")
		if rs == nil {
			continue
		}
		spanUS += float64(workers) * float64(rs.DurUS)
		for _, rd := range rs.Children {
			busyUS += float64(rd.DurUS)
			roundMS = append(roundMS, usMS(rd.DurUS))
			coreSelf = append(coreSelf, usMS(selfUS(rd)))
			for _, c := range rd.Children {
				w := c.Counters["witnesses"]
				cells++
				cellMS = append(cellMS, usMS(c.DurUS))
				cellWit += float64(w)
				if float64(w) >= kp.LoThresh && w <= int64(kp.HiThresh) {
					inBand++
				}
				conflicts += float64(c.Counters["conflicts"])
				props += float64(c.Counters["propagations"])
				xorRows += float64(c.Counters["xor_rows"])
			}
		}
	}
	var cellSecs float64
	for _, c := range cellMS {
		cellSecs += c / 1000
	}
	return []metric{
		{"parallel.worker_busy_ratio", ratio(busyUS, spanUS), "ratio"},
		{"parallel.rounds_per_request", ratio(rounds, float64(len(recs))), "count"},
		{"core.round_ms_p50", median(roundMS), "ms"},
		{"core.self_ms_p50", median(coreSelf), "ms"},
		{"core.cells_per_round", ratio(cells, float64(len(roundMS))), "count"},
		{"core.round_success_ratio", ratio(samples, rounds), "ratio"},
		{"bsat.cell_ms_p50", median(cellMS), "ms"},
		{"bsat.cell_ms_p90", quantile(cellMS, 0.9), "ms"},
		{"bsat.witnesses_per_cell", ratio(cellWit, cells), "count"},
		{"bsat.cell_in_band_ratio", ratio(inBand, cells), "ratio"},
		{"sat.conflicts_per_cell", ratio(conflicts, cells), "count"},
		{"sat.propagations_per_cell", ratio(props, cells), "count"},
		{"sat.propagations_per_s", ratio(props, cellSecs), "1/s"},
		{"hashfam.xor_rows_per_cell", ratio(xorRows, cells), "count"},
	}
}

// drawBatch is how many hashfam.Draw calls one timing sample covers; a
// single draw takes well under a microsecond.
const drawBatch = 64

// directLayers times calls into cnf, counter and hashfam from this
// file, on the formulas the traced requests sent. counter.ApproxMC runs
// with the service's parameters and the fingerprint-derived seed the
// service uses, so its estimate must equal the /count reply.
func (b *bench) directLayers(traced []rec) ([]metric, error) {
	var parse, fp []float64
	for _, r := range traced {
		t := time.Now()
		f, err := cnf.ParseDIMACSString(r.in.text)
		parse = append(parse, ms(time.Since(t)))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		_ = cnf.Fingerprint(f)
		fp = append(fp, ms(time.Since(t)))
	}

	// The formulas to count, with the /count reply each must match: the
	// corpus (counted during set-up) or every traced cold formula.
	// Exact replies came from the easy-case enumeration, not from
	// ApproxMC, and are not compared.
	var forms []input
	var replies []service.CountHTTPResponse
	if b.w.n > 0 {
		forms, replies = b.corpus, b.counts
	} else {
		for _, r := range traced {
			forms = append(forms, r.in)
			replies = append(replies, *r.count)
		}
	}
	kp, _ := core.ComputeKappaPivot(6)
	var amc, amcRounds, amcRows, draw []float64
	var rows, lenSum, words float64
	for i, in := range forms {
		f, err := in.formula()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		rng := randx.New(core.PrepSeedFromFingerprint(cnf.Fingerprint(f)))
		vars := f.SamplingVars()
		t := time.Now()
		res, err := counter.ApproxMC(f, rng, counter.ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, SamplingSet: vars, MaxHashRounds: b.w.amcRounds})
		amc = append(amc, time.Since(t).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s: ApproxMC: %w", in.name, err)
		}
		amcRounds = append(amcRounds, float64(res.Rounds))
		amcRows = append(amcRows, float64(res.TotalXORRows))
		if c := replies[i]; !c.Exact && c.Count != res.Count.String() {
			b.failOp("%s: /count %s but ApproxMC with the service's seed gives %s", in.name, c.Count, res.Count)
		}

		// Line 10 of Algorithm 1: q = ⌈log₂ C + log₂ 1.8 − log₂ pivot⌉,
		// clamped to [1, |S|]; cells hash with m ∈ [q−3, q] rows.
		c, _ := new(big.Float).SetInt(res.Count).Float64()
		q := int(math.Ceil(math.Log2(c) + math.Log2(1.8) - math.Log2(float64(kp.Pivot))))
		q = min(max(q, 1), len(vars))
		drng := randx.New(mix(b.cfg.seed, 1<<42+uint64(i)))
		for m := max(q-3, 1); m <= q; m++ {
			for rep := 0; rep < 32; rep++ {
				t := time.Now()
				for j := 0; j < drawBatch; j++ {
					h := hashfam.Draw(drng, vars, m)
					rows += float64(h.M())
					lenSum += float64(h.TotalLen())
					for _, row := range h.Rows {
						words += float64(len(row.Bits))
					}
				}
				draw = append(draw, float64(time.Since(t))/float64(time.Microsecond)/drawBatch)
			}
		}
	}
	return []metric{
		{"cnf.parse_ms_p50", median(parse), "ms"},
		{"cnf.fingerprint_ms_p50", median(fp), "ms"},
		{"counter.approxmc_s_p50", median(amc), "s"},
		{"counter.rounds_per_prepare", median(amcRounds), "count"},
		{"counter.xor_rows_per_prepare", median(amcRows), "count"},
		{"hashfam.draw_us_p50", median(draw), "us"},
		{"hashfam.xor_len_avg", ratio(lenSum, rows), "count"},
		{"gf2.words_per_row", ratio(words, rows), "count"},
	}, nil
}
