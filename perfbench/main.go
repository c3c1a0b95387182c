// Command perfbench is the repository's benchmark. One run drives one
// workload (splash, syscall or service) through the public functions of
// the recorder, replayer, race detector, ingest server and fleet, checks
// every output, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) by name with their units. The last line of
// standard output is a JSON summary. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	sz       sizes
	buildDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: splash, syscall or service")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed; derives every scheduler and kernel seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	smoke := fs.Bool("smoke", false, "minimal input sizes (the smoke test)")
	fs.StringVar(&c.buildDir, "build-dir", ".bench_build", "directory for the service store and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	c.traced = *trace == 1
	c.sz = fullSizes
	if *smoke {
		c.sz = smokeSizes
	}
	if err := bench(c, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object on the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(c config, out io.Writer) error {
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(c.buildDir, 0o755); err != nil {
		return err
	}
	ck := &checker{}

	// The measured programs and service come from the first set-up. The
	// run sets up again once per cycle (below), discarding the result, so
	// that setup_s, the median, samples the host over the whole run.
	items, svc, build, setup, err := setUp(c, procs, 0, ck)
	if err != nil {
		return err
	}
	defer svc.close()
	builds, setups := []float64{build}, []float64{setup}

	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	client, err := fleet.Dial(svc.srv.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	runtime.GC()
	m0 := readRuntime()

	// The measured part repeats one cycle of every stage — a local round
	// (each item through the pipeline once), an open-loop window, a
	// closed-loop window and a fleet round — until --seconds would be
	// exceeded. Interleaving spreads every stage over the whole run, and
	// each host-time metric takes the best cycle, so that a stretch of
	// load on the shared host from outside the benchmark does not decide
	// the run. A traced run alternates untraced and traced cycles, so the
	// two halves see the same work, and the difference of their local
	// rounds is the tracing overhead.
	var tot localTotals
	var ref *roundStats
	var opens []openResult
	var capacity []float64
	var ft fleetTotals
	budget := time.Duration(c.seconds * float64(time.Second))
	n := (c.sz.window*20 + 17) / 18 // 18 of every 20 uploads get a timed verdict
	start := time.Now()
	for r := 0; r < minCycles || time.Since(start)*time.Duration(r+1)/time.Duration(r) <= budget; r++ {
		var rt *tracer
		if c.traced && r%2 == 1 {
			rt = tr
		}
		a0 := heapAllocs()
		ph, rs := runRound(items, procs, rt, r, ck)
		tot.allocBytes += heapAllocs() - a0
		tot.rounds = append(tot.rounds, ph)
		if ref == nil {
			ref = &rs
		} else {
			ck.ok(rs == *ref, "round %d: simulated ledger differs from round 0", r)
		}

		open := svc.openLoop(n, rt, r, ck)
		open.traced = rt != nil
		opens = append(opens, open)
		capacity = append(capacity, svc.closedLoop(c.sz.closedWindow, rt, r, ck))
		svc.fleetRound(client, rt, r, &ft, ck)

		if len(setups) < c.sz.setupReps {
			_, spare, build, setup, err := setUp(c, procs, len(setups), ck)
			if err != nil {
				return err
			}
			if err := spare.close(); err != nil {
				return err
			}
			builds, setups = append(builds, build), append(setups, setup)
		}
	}
	tot.round = *ref
	m1 := readRuntime()

	var pt probeTotals
	if c.traced {
		pt = runProbes(items, tr, 0, ck)
		ck.ok(tr.dropped == 0, "tracer dropped %d spans past its cap of %d", tr.dropped, maxSpans)
	}
	utilisation := openRate / slices.Max(capacity)
	ck.ok(utilisation < maxUtilisation, "open loop at %d/s is %.2f of the measured capacity, want below %.2f", openRate, utilisation, maxUtilisation)

	// Report.
	rs := tot.round
	kinstr := float64(rs.recorded) / 1e3
	fmt.Fprintf(out, "perfbench: workload %s, seed %d, %d local rounds, %d procs, %d items; modelled caches start empty in every recording\n",
		c.workload, c.seed, len(tot.rounds), procs, len(items))
	fmt.Fprintf(out, "sim_digest %x\n", rs.digest)
	fmt.Fprintf(out, "sim_overhead_pct %.3f  (paper abstract: software stack ~13%%, hardware ~0; the cycle model is otherwise unvalidated)\n",
		pct(rs.fullCycles-rs.offCycles, rs.offCycles))
	fmt.Fprintf(out, "sim_checkpoint_pct %.3f  (flight-recorder checkpoints, left out of sim_overhead_pct)\n", pct(rs.ckptCycles, rs.offCycles))
	samples := 0
	for _, o := range opens {
		samples += len(o.latencies)
	}
	fmt.Fprintf(out, "verdict_samples %d  (open loop at %d/s in %d windows of %d uploads; verdict_p50_ms is the best window's)\n",
		samples, openRate, len(opens), n)
	fmt.Fprintf(out, "open_loop_utilisation %.3f  (open-loop rate over the best closed-loop capacity, %.0f/s; checked below %.2f)\n",
		utilisation, slices.Max(capacity), maxUtilisation)
	if c.traced {
		fmt.Fprintf(out, "trace_dropped_spans %d  (checked to be 0)\n", tr.dropped)
	}

	var ms map[string]metric
	if !c.traced {
		ms = map[string]metric{
			"setup_s":                 {median(setups), "s"},
			"record_minstr_s":         {bestRate(tot.rounds, func(p *phases) phase { return p.record }), "Minstr/s"},
			"replay_minstr_s":         {bestRate(tot.rounds, func(p *phases) phase { return p.replay }), "Minstr/s"},
			"par_replay_minstr_s":     {bestRate(tot.rounds, func(p *phases) phase { return p.par }), "Minstr/s"},
			"races_minstr_s":          {bestRate(tot.rounds, func(p *phases) phase { return p.races }), "Minstr/s"},
			"fleet_replay_minstr_s":   {bestRate(ft.rounds, func(p *phase) phase { return *p }), "Minstr/s"},
			"log_bytes_per_kinstr":    {float64(rs.logBytes) / kinstr, "B/kinstr"},
			"bundle_bytes_per_kinstr": {float64(rs.bundleBytes) / kinstr, "B/kinstr"},
			"sim_overhead_pct":        {pct(rs.fullCycles-rs.offCycles, rs.offCycles), "%"},
			"alloc_bytes_per_kinstr":  {float64(tot.allocBytes) / float64(len(tot.rounds)) / kinstr, "B/kinstr"},
			"max_rss_mb":              {maxRSSMB(), "MB"},
			"verdict_p50_ms":          {millis(bestPercentile(opens, 0.50)), "ms"},
			"verdicts_per_s":          {slices.Max(capacity), "1/s"},
		}
	} else {
		ms = layerMetrics(tr, builds, &tot, opens, &ft, &pt, m0, m1)
		if err := tr.write(filepath.Join(c.buildDir, fmt.Sprintf("spans-%s-seed%d.tsv", c.workload, c.seed))); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "metric %-34s %16.6f %s\n", k, ms[k].Value, ms[k].Unit)
	}
	failedPct := 0.0
	if ck.attempted > 0 {
		failedPct = 100 * float64(ck.failed) / float64(ck.attempted)
	}
	fmt.Fprintf(out, "metric %-34s %16.6f %%  (%d of %d checked operations)\n", "failed_pct", failedPct, ck.failed, ck.attempted)
	if !c.traced {
		// Printed, not in the summary: on a shared host its run-to-run
		// spread is far wider than any bound; the traced run reports it.
		var all []time.Duration
		for _, o := range opens {
			all = append(all, o.latencies...)
		}
		fmt.Fprintf(out, "metric %-34s %16.6f ms  (all windows; not bounded)\n", "verdict_p99_ms", millis(percentile(all, 0.99)))
	}
	for _, e := range ck.errs {
		fmt.Fprintln(out, "FAILED:", e)
	}
	line, err := json.Marshal(summary{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if ck.failed > 0 {
		return fmt.Errorf("%d of %d checked operations failed", ck.failed, ck.attempted)
	}
	return nil
}

// layerMetrics derives the per-layer metrics of a traced run. Times and
// counts are per traced cycle (the local ones per pass of the pipeline
// over the workload's items), so they compare across runs of any length;
// the simulated counts repeat exactly.
func layerMetrics(tr *tracer, builds []float64, tot *localTotals, opens []openResult, ft *fleetTotals,
	pt *probeTotals, m0, m1 runtimeSample) map[string]metric {
	self := tr.selfTimes()
	rs := tot.round
	traced := float64(len(tot.rounds) / 2) // rounds that ran traced
	perRound := func(name string) float64 { return self[name].Seconds() / traced }
	kinstr := float64(rs.recorded) / 1e3
	native := perRound("machine.native")
	record := perRound("core.record") + perRound("core.stream_record")
	replayS := perRound("replay.serial")
	parS := perRound("replay.parallel")

	m := map[string]metric{
		"workload.build_s":            {median(builds), "s"},
		"machine.native_s":            {native, "s"},
		"machine.ns_per_instr":        {native * 1e9 / float64(rs.recorded), "ns"},
		"cache.ns_per_access":         {perNs(self["cache.access"], pt.accesses), "ns"},
		"cache.miss_pct":              {pct(rs.misses, rs.accesses), "%"},
		"bus.snoops_per_kinstr":       {float64(rs.snoops) / kinstr, "1/kinstr"},
		"signature.ns_per_op":         {perNs(self["signature.op"], pt.sigOps), "ns"},
		"mrr.chunks_per_kinstr":       {float64(rs.chunks) / kinstr, "1/kinstr"},
		"mrr.sig_false_hit_pct":       {pct(pt.sigFalseHits, pt.sigHits), "%"},
		"core.record_over_native_pct": {100 * (record/native - 1), "%"},
		"perf.hw_overhead_pct":        {pct(rs.fullAcct[perf.CompRecHardware], rs.offCycles), "%"},
		"capo.syscalls_per_kinstr":    {float64(rs.syscalls) / kinstr, "1/kinstr"},
		"capo.input_bytes_per_kinstr": {float64(rs.inputBytes) / kinstr, "B/kinstr"},
		"capo.encode_s":               {self["capo.encode"].Seconds(), "s"},
		"capo.decode_s":               {self["capo.decode"].Seconds(), "s"},
		"chunk.encode_s":              {self["chunk.encode"].Seconds(), "s"},
		"chunk.decode_s":              {self["chunk.decode"].Seconds(), "s"},
		"wire.block_encode_s":         {self["wire.block_encode"].Seconds(), "s"},
		"wire.block_decode_s":         {self["wire.block_decode"].Seconds(), "s"},
		"wire.lz_ratio":               {ratio(pt.rawBytes, pt.blockBytes), "x"},
		"core.marshal_s":              {perRound("core.marshal"), "s"},
		"core.unmarshal_s":            {perRound("core.unmarshal"), "s"},
		"core.verify_s":               {perRound("core.verify"), "s"},
		"segment.stream_extra_s":      {(pt.streamRecord - pt.plainRecord).Seconds(), "s"},
		"segment.salvage_s":           {perRound("segment.salvage"), "s"},
		"segment.framing_pct":         {pct(pt.framing, pt.streamBytes), "%"},
		"replay.replay_s":             {replayS, "s"},
		"replay.par_replay_s":         {parS, "s"},
		"replay.intervals":            {float64(rs.intervals), "count"},
		"replay.par_speedup_x":        {replayS / parS, "x"},
		"analysis.pairs_s":            {self["analysis.pairs"].Seconds(), "s"},
		"analysis.pairs":              {float64(pt.pairs), "count"},
		"races.screen_s":              {perRound("races.screen"), "s"},
		"races.detect_s":              {perRound("races.detect"), "s"},
		"races.candidates":            {float64(rs.candidates), "count"},
		"races.confirm_pct":           {pct(rs.confirmed, rs.candidates), "%"},
		"fleet.upload_s":              {ft.upload.Seconds() / float64(len(ft.rounds)), "s"},
		"fleet.replay_s":              {ft.rep.Seconds() / float64(len(ft.rounds)), "s"},
		"fleet.jobs":                  {float64(ft.jobs), "count"},
		"fleet.slowdown_x":            {ft.rep.Seconds() / ft.local.dur.Seconds(), "x"},
		"go.gc_cycles":                {m1.gcCycles - m0.gcCycles, "count"},
		"go.gc_cpu_pct":               {100 * (m1.gcCPU - m0.gcCPU) / (m1.totalCPU - m0.totalCPU), "%"},
		"trace.overhead_pct":          {100 * (bestRound(tot.rounds, 1).Seconds()/bestRound(tot.rounds, 0).Seconds() - 1), "%"},
	}
	for comp := perf.Component(0); comp < perf.NumComponents; comp++ {
		if comp.IsRecording() && comp != perf.CompRecHardware {
			m["perf.sw_breakdown_pct."+comp.String()] = metric{pct(rs.fullAcct[comp], rs.offCycles), "%"}
		}
	}

	// ingest: per-upload session and wait times, sampled queue maxima,
	// and the open loop's counts, over the traced cycles.
	var sum openResult
	for _, o := range opens {
		if !o.traced {
			continue
		}
		sum.lags = append(sum.lags, o.lags...)
		sum.sessions += o.sessions
		sum.waits += o.waits
		sum.acked += o.acked
		sum.dups += o.dups
		sum.retries += o.retries
		sum.severed += o.severed
		sum.shed += o.shed
		sum.latencies = append(sum.latencies, o.latencies...)
		sum.verifyQMax, sum.shardQMax = max(sum.verifyQMax, o.verifyQMax), max(sum.shardQMax, o.shardQMax)
	}
	m["ingest.upload_s"] = metric{sum.sessions.Seconds() / float64(max(sum.acked, 1)), "s"}
	m["ingest.verify_wait_s"] = metric{sum.waits.Seconds() / float64(max(len(sum.latencies), 1)), "s"}
	m["ingest.verify_queue_max"] = metric{float64(sum.verifyQMax), "count"}
	m["ingest.shard_queue_max"] = metric{float64(sum.shardQMax), "count"}
	m["ingest.dedup_pct"] = metric{100 * float64(sum.dups) / float64(max(sum.acked, 1)), "%"}
	m["ingest.retries"] = metric{float64(sum.retries) / traced, "count"}
	m["ingest.torn"] = metric{float64(sum.severed) / traced, "count"}
	m["ingest.shed"] = metric{float64(sum.shed) / traced, "count"}
	m["loadgen.lag_p99_ms"] = metric{millis(percentile(sum.lags, 0.99)), "ms"}
	m["verdict_p99_ms"] = metric{millis(percentile(sum.latencies, 0.99)), "ms"}
	return m
}

// setUp builds the workload's programs, records the service fixtures,
// starts the service, warms it and sends the first item through the
// pipeline once. It returns the programs and the running service, with
// the seconds spent building programs and in all of set-up.
func setUp(c config, procs, rep int, ck *checker) ([]item, *service, float64, float64, error) {
	runtime.GC()
	start := time.Now()
	items, err := buildItems(c.workload, c.seed, c.sz)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	build := time.Since(start).Seconds()
	svc, err := startService(storeDir(c.buildDir, rep), c.seed, c.sz, procs, ck)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var warm phases
	var rs roundStats
	runItem(&items[0], procs, nil, -1, &warm, ck, &rs, sha256.New())
	return items, svc, build, time.Since(start).Seconds(), nil
}

// bestRound is the time of a best local round among the rounds of one
// parity (0: untraced, 1: traced): each item's fastest, summed.
func bestRound(rounds [][]phases, parity int) time.Duration {
	var total time.Duration
	for i := range rounds[0] {
		best := time.Duration(-1)
		for r := parity; r < len(rounds); r += 2 {
			p := &rounds[r][i]
			if d := p.record.dur + p.replay.dur + p.par.dur + p.races.dur; best < 0 || d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// runtimeSample is a reading of the Go runtime's GC and CPU counters.
type runtimeSample struct{ gcCycles, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// bestPercentile is the lowest q-quantile of verdict latency among the
// open-loop windows: the least-disturbed window's.
func bestPercentile(opens []openResult, q float64) time.Duration {
	best := percentile(opens[0].latencies, q)
	for _, o := range opens[1:] {
		best = min(best, percentile(o.latencies, q))
	}
	return best
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perNs(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func millis(d time.Duration) float64 { return d.Seconds() * 1e3 }
