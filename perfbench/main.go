// Command perfbench is the repository benchmark. It serves an in-process
// service.Service over loopback HTTP through service.NewHandler, drives
// it from the same process with a closed loop of at most two clients,
// checks every reply, and prints the metrics named in BENCHMARK.json.
//
//	perfbench --workload warm-sample --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// re-drives the same requests, tracing every other round of them, and
// prints the per-layer metrics. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is non-zero when any request or output check failed. NOTES.md
// describes the workloads, the client model and which layer metric
// should move which end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unigen/internal/service"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	workdir  string
}

// setups is how many fresh services an end-to-end run sets up; setup_s
// is the median of their set-up times.
const setups = 3

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "warm-sample, fullsup-sample or cold-prepare")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; request seeds and cold generator seeds derive from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced re-run")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory that holds the run's stores (removed at exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(cfg.workload)
	if err == nil && (cfg.trace < 0 || cfg.trace > 1 || cfg.seconds <= 0) {
		err = fmt.Errorf("need --trace 0|1 and --seconds > 0")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, cfg: cfg, dir: dir, wc: newWitnessChecker(), cal: newCalibrator(), digest: sha256.New()}
	if err := b.makeInputs(); err != nil {
		fmt.Fprintln(stderr, "perfbench: generating inputs:", err)
		return 1
	}
	var ms []metric
	if cfg.trace == 1 {
		ms, err = b.traced()
	} else {
		ms, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-32s %-14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "digest %x\n", b.digest.Sum(nil))
	if err := printResult(stdout, b, ms); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(b.problems) > 0 {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the final JSON line. Only the metrics registered in
// BENCHMARK.json go into it; the extra figures printed above it (failed
// ratio, p90, witness rate) are for people reading the log.
func printResult(stdout io.Writer, b *bench, ms []metric) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		if !m.extra() {
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// extraMetrics are printed for readers but left out of the JSON result:
// they are zero on some workloads or lack enough samples on others (see
// NOTES.md).
var extraMetrics = map[string]bool{"witnesses_per_s": true, "latency_p90_ms": true, "failed_ratio": true}

func (m metric) extra() bool {
	return extraMetrics[m.name] || strings.HasPrefix(m.name, "raw.") || strings.HasPrefix(m.name, "host.")
}

// bench holds one run's inputs, its tally of checked operations and the
// digest of its fixed-seed outputs.
type bench struct {
	w      workload
	cfg    config
	dir    string
	corpus []input // sampling workloads: the fixed corpus
	warmup []input // cold-prepare: the formulas each set-up prepares

	wc        *witnessChecker
	cal       *calibrator
	attempted int
	failed    int
	problems  []string
	digest    hash.Hash
	setupRef  []string                    // fixed-seed outputs of the first set-up
	counts    []service.CountHTTPResponse // the first set-up's corpus /count replies
}

// fail records a failed check that is not tied to one request, such as
// the success-ratio gate.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// failOp records a failed request or a failed check of one reply; both
// count as failed operations.
func (b *bench) failOp(format string, args ...any) {
	b.failed++
	b.fail(format, args...)
}

// makeInputs generates the formulas set-up sends. The never-seen
// formulas of a cold window are generated one per request, in the loop.
func (b *bench) makeInputs() error {
	if b.w.n > 0 {
		var err error
		b.corpus, err = b.w.corpusInputs()
		return err
	}
	for _, spec := range b.w.coldSpecs {
		in, err := generate(spec, corpusGenSeed, false)
		if err != nil {
			return err
		}
		b.warmup = append(b.warmup, in)
	}
	return nil
}

// setUp builds a fresh server and brings it to the state the timed
// window starts from: for a sampling workload the whole corpus prepared
// (two clients POST /count) plus one fixed-seed /sample per formula; for
// cold-prepare one warm-up /count per cold generator, on formulas with a
// fixed generator seed, which never collide with the window's. The
// fixed-seed outputs of every set-up must match the first one's.
func (b *bench) setUp(ring bool) (*server, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(b.w, b.dir, ring)
	if err != nil {
		return nil, 0, err
	}
	var outs []string
	var probes []rec
	var counts []service.CountHTTPResponse
	if b.w.n == 0 {
		for _, in := range b.warmup {
			resp, _, _, err := srv.count(in)
			if err != nil {
				srv.close()
				return nil, 0, fmt.Errorf("set-up: %w", err)
			}
			outs = append(outs, fmt.Sprintf("count %s %s %v", in.name, resp.Count, resp.Exact))
		}
	} else {
		counts, err = b.prepareCorpus(srv)
		if err != nil {
			srv.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		for i, c := range counts {
			outs = append(outs, fmt.Sprintf("count %s %s %v", b.corpus[i].name, c.Count, c.Exact))
		}
		for i, in := range b.corpus {
			seed := mix(b.cfg.seed, 1<<40+uint64(i))
			resp, _, _, err := srv.sample(in, b.w.n, b.w.workers, seed, false)
			if err != nil {
				srv.close()
				return nil, 0, fmt.Errorf("set-up: %w", err)
			}
			probes = append(probes, rec{in: in, sample: &resp})
			outs = append(outs, fmt.Sprintf("sample %s %d %v", in.name, seed, resp.Witnesses))
		}
	}
	d := time.Since(start)

	for _, p := range probes {
		if msg := b.wc.check(p.in, b.w.n, p.sample); msg != "" {
			b.failOp("set-up probe: %s", msg)
		}
	}
	if b.setupRef == nil {
		b.setupRef, b.counts = outs, counts
		for _, o := range outs {
			fmt.Fprintln(b.digest, o)
		}
	} else {
		for i := range outs {
			if outs[i] != b.setupRef[i] {
				b.failOp("set-up is not deterministic: %q then %q", b.setupRef[i], outs[i])
			}
		}
	}
	return srv, d, nil
}

// prepareCorpus POSTs /count for every corpus formula from two clients
// and returns the replies in corpus order.
func (b *bench) prepareCorpus(srv *server) ([]service.CountHTTPResponse, error) {
	outs := make([]service.CountHTTPResponse, len(b.corpus))
	errs := make([]error, len(b.corpus))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < min(2, len(b.corpus)); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(b.corpus) {
					return
				}
				outs[i], _, _, errs[i] = srv.count(b.corpus[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// rec is one request of a timed window and its reply.
type rec struct {
	k       int
	in      input
	seed    uint64
	traced  bool
	lat     time.Duration
	traceID string
	seg     int     // the window segment the request ran in
	scale   float64 // the segment's wall-time scale
	sample  *service.SampleHTTPResponse
	count   *service.CountHTTPResponse
	err     error
}

// pass is one timed window: its requests, and the segments it ran in
// with the host calibrations between them (cal[i] before segment i,
// cal[i+1] after it).
type pass struct {
	recs []rec
	segs []segmentTime
	cal  []time.Duration
}

type segmentTime struct {
	elapsed time.Duration
	cpu     time.Duration
	share   float64 // the share of elapsed the vCPUs ran (see runShare)
}

// speed converts a CPU time measured in segment i to the nominal host
// speed.
func (p pass) speed(i int) float64 { return scale(p.cal[i], p.cal[i+1]) }

// wall converts a wall time measured in segment i to the nominal host
// speed, without the time the host withheld the vCPUs.
func (p pass) wall(i int) float64 { return p.speed(i) * p.segs[i].share }

// ok returns the requests that succeeded.
func (p pass) ok() []rec {
	var out []rec
	for _, r := range p.recs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

// segment is how long a window runs between two host calibrations.
const segment = 2500 * time.Millisecond

// window runs the workload's closed loop for d: each client sends its
// next request when the previous reply arrived. The window is cut into
// segments; at the end of each, the clients stop sending, the last reply
// is awaited, and the host's speed is calibrated with the service idle
// (before the first segment too), so every segment's times can be scaled
// by the speed measured on both sides of it and by the steal counted
// during it. Request k of every window
// is the same request, so a traced window re-drives an untraced one.
// Generating a cold formula (about half a millisecond) counts against
// the window but not the latency.
//
// A non-nil tsrv makes it the traced window: every other round over the
// workload's input groups is traced, so traced and untraced requests
// interleave in time and cover every group alike. A traced /sample sets
// "trace": true; a traced /count goes to tsrv, whose request ring keeps
// every span tree.
func (b *bench) window(srv, tsrv *server, d time.Duration) (pass, error) {
	var (
		p    pass
		mu   sync.Mutex
		next atomic.Int64
	)
	p.cal = append(p.cal, b.cal.measure())
	for left := d; left > 0; left -= segment {
		seg := len(p.segs)
		var wg sync.WaitGroup
		steal0, err := stolen()
		if err != nil {
			return p, err
		}
		cpu0 := cpuTime()
		start := time.Now()
		deadline := start.Add(min(segment, left))
		for c := 0; c < b.w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					r := b.request(srv, tsrv, int(next.Add(1)-1))
					r.seg = seg
					mu.Lock()
					p.recs = append(p.recs, r)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		elapsed, cpu := time.Since(start), cpuTime()-cpu0
		steal1, err := stolen()
		if err != nil {
			return p, err
		}
		p.segs = append(p.segs, segmentTime{elapsed: elapsed, cpu: cpu, share: runShare(steal1-steal0, elapsed)})
		p.cal = append(p.cal, b.cal.measure())
	}
	for i := range p.recs {
		p.recs[i].scale = p.wall(p.recs[i].seg)
	}
	return p, nil
}

func (b *bench) request(srv, tsrv *server, k int) rec {
	traced := tsrv != nil && (k/b.w.groups())%2 == 0
	if b.w.n == 0 {
		in, err := b.w.coldInput(b.cfg.seed, k)
		if err != nil {
			return rec{k: k, in: in, traced: traced, err: err}
		}
		if traced {
			srv = tsrv
		}
		resp, lat, id, err := srv.count(in)
		return rec{k: k, in: in, traced: traced, lat: lat, traceID: id, count: &resp, err: err}
	}
	in := b.corpus[k%len(b.corpus)]
	seed := mix(b.cfg.seed, uint64(k))
	resp, lat, id, err := srv.sample(in, b.w.n, b.w.workers, seed, traced)
	return rec{k: k, in: in, seed: seed, traced: traced, lat: lat, traceID: id, sample: &resp, err: err}
}

// checkPass runs the output checks of one window, outside its timing:
// every reply is validated, the round success ratio is gated at
// Theorem 1's floor, and the first request of each corpus formula is
// replayed with another worker count, which must return the same
// witnesses.
func (b *bench) checkPass(srv *server, p pass) {
	var samples, rounds int64
	for _, r := range p.recs {
		b.attempted++
		var msg string
		switch {
		case r.err != nil:
			msg = r.err.Error()
		case r.sample != nil:
			msg = b.wc.check(r.in, b.w.n, r.sample)
			samples += r.sample.Stats.Samples
			rounds += r.sample.Stats.Rounds
		default:
			msg = checkCount(r.in, r.count)
		}
		if msg != "" {
			b.failOp("%s", msg)
		}
	}
	if b.w.n == 0 {
		return
	}
	if sr := ratio(float64(samples), float64(rounds)); sr < minSuccessRatio {
		b.fail("round success ratio %.3f is below Theorem 1's floor %.2f", sr, minSuccessRatio)
	}
	workers := 1
	if b.w.workers == 1 {
		workers = 2
	}
	for _, r := range p.ok() {
		if r.k >= len(b.corpus) {
			continue
		}
		resp, _, _, err := srv.sample(r.in, b.w.n, workers, r.seed, false)
		if err != nil || !sameWitnesses(&resp, r.sample) {
			b.failOp("%s seed %d: witnesses differ between %d and %d workers (%v)", r.in.name, r.seed, b.w.workers, workers, err)
		}
	}
}

// recountCold prepares the first cold formulas again on a fresh server:
// the count must not depend on the service instance that computed it.
func (b *bench) recountCold(p pass) error {
	srv, err := startServer(b.w, b.dir, false)
	if err != nil {
		return err
	}
	defer srv.close()
	for _, r := range p.ok() {
		if r.k >= 2 {
			continue
		}
		resp, _, _, err := srv.count(r.in)
		if err != nil || resp.Count != r.count.Count || resp.Exact != r.count.Exact {
			b.failOp("%s: count %s then %s on a fresh service (%v)", r.in.name, r.count.Count, resp.Count, err)
		}
		fmt.Fprintf(b.digest, "count %s %s %v\n", r.in.name, resp.Count, resp.Exact)
	}
	return nil
}

// endToEnd is the --trace 0 run: set up three times (setup_s is the
// median), then measure one window on the last set-up's server. The
// host is calibrated before and after every set-up, and the set-up
// times are scaled by the median of those calibrations and by the steal
// counted during each. max_rss_mb is
// the peak resident set of the window alone: the peak is reset after
// set-up, once the garbage of set-up is returned.
func (b *bench) endToEnd() ([]metric, error) {
	var times, raw []float64
	var srv *server
	cals := []float64{ms(b.cal.measure())}
	for i := 0; i < setups; i++ {
		steal0, err := stolen()
		if err != nil {
			return nil, err
		}
		s, d, err := b.setUp(false)
		if err != nil {
			return nil, err
		}
		steal1, err := stolen()
		if err != nil {
			return nil, err
		}
		raw = append(raw, d.Seconds())
		times = append(times, d.Seconds()*runShare(steal1-steal0, d))
		cals = append(cals, ms(b.cal.measure()))
		if i < setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	setupScale := math.Pow(ms(calNominal)/median(cals), calExponent)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	p, err := b.window(srv, nil, time.Duration(b.cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	b.checkPass(srv, p)
	if err := srv.close(); err != nil {
		return nil, err
	}
	if b.w.n == 0 {
		if err := b.recountCold(p); err != nil {
			return nil, err
		}
	}

	ok := p.ok()
	if len(ok) == 0 {
		return nil, fmt.Errorf("no request succeeded in the window")
	}
	var lats []float64
	witnesses := 0
	for _, r := range ok {
		lats = append(lats, ms(r.lat)*r.scale)
		if r.sample != nil {
			witnesses += len(r.sample.Witnesses)
		}
	}
	var calMS []float64
	for _, c := range p.cal {
		calMS = append(calMS, ms(c))
	}
	var secs, cpu, rawSecs, rawCPU float64
	for i, sg := range p.segs {
		secs += sg.elapsed.Seconds() * p.wall(i)
		cpu += ms(sg.cpu) * p.speed(i)
		rawSecs += sg.elapsed.Seconds()
		rawCPU += ms(sg.cpu)
	}
	n := float64(len(ok))
	out := []metric{
		{"setup_s", median(times) * setupScale, "s"},
		{"requests_per_s", n / secs, "1/s"},
		{"latency_p50_ms", perInputMedian(latencies(ok, true)), "ms"},
		{"cpu_ms_per_request", cpu / n, "ms"},
		{"max_rss_mb", rss, "MB"},
		{"failed_ratio", ratio(float64(b.failed), float64(b.attempted)), "ratio"},
		{"raw.setup_s", median(raw), "s"},
		{"raw.requests_per_s", n / rawSecs, "1/s"},
		{"raw.latency_p50_ms", perInputMedian(latencies(ok, false)), "ms"},
		{"raw.cpu_ms_per_request", rawCPU / n, "ms"},
		{"host.calibration_ms", median(calMS), "ms"},
		{"host.run_share", runShareOf(p), "ratio"},
	}
	// The pooled p90, printed only with at least ten samples beyond it.
	if len(lats) >= 100 {
		out = append(out, metric{"latency_p90_ms", quantile(lats, 0.9), "ms"})
	}
	if b.w.n > 0 {
		out = append(out, metric{"witnesses_per_s", float64(witnesses) / secs, "1/s"})
	}
	return out, nil
}

// runShareOf is the share of a window's wall time the vCPUs ran.
func runShareOf(p pass) float64 {
	var ran, all float64
	for _, sg := range p.segs {
		ran += sg.elapsed.Seconds() * sg.share
		all += sg.elapsed.Seconds()
	}
	return ran / all
}

// latencies groups request latencies in milliseconds by input group,
// scaled to the nominal host speed or as measured.
func latencies(recs []rec, scaled bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		f := 1.0
		if scaled {
			f = r.scale
		}
		out[r.in.group] = append(out[r.in.group], ms(r.lat)*f)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the operating system and resets
// the process's peak resident set (Linux: "5" to clear_refs), so that
// peakRSSMB covers only what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size (VmHWM) since the
// last resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
