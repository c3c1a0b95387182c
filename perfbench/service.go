package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/isa"
	"repro/internal/replay"
	"repro/internal/workload"
)

// poolStream is one pre-recorded upload with the verdict it must get.
type poolStream struct {
	name   string
	data   []byte // the whole stream: verified as accepted
	cut    []byte // its first half, uploaded whole: verified as torn (first poolCuts streams)
	steps  uint64 // the verifier's replay must retire exactly this many
	memsum uint64 // ... and reach this memory checksum

	dataObj, cutObj string // where the store keeps data and cut
}

// fleetItem is one checkpointed catalogue recording replayed through
// the fleet and compared with its local serial replay.
type fleetItem struct {
	name  string
	prog  *isa.Program
	b     *core.Bundle
	local *replay.Result
}

// service is the in-process service stack: a loopback ingest server and
// one fleet worker attached to it, both at procs verifiers/slots, with a
// store under dir.
type service struct {
	dir    string
	srv    *ingest.Server
	served chan error // Serve's return
	worked chan error // the fleet worker's return
	pool   []poolStream
	fleet  []fleetItem
	procs  int
	epoch  int // distinguishes tenants across stages on one server
}

// fleetPrograms are replayed through the fleet: catalogue programs from
// 7k to 390k instructions, about 1.4M in all, so that a fleet round is
// long enough to time and every recording has intervals to spread over
// the worker's slots.
var fleetPrograms = []string{"water", "radiosity", "lu", "ocean", "fmm", "byteshare", "kvserver"}

// fleetCheckpointInstrs is the fleet recordings' checkpoint cadence,
// which sets the size of one fleet job.
const fleetCheckpointInstrs = 16000

// poolCuts is how many pool streams also have their first half stored,
// for the cut uploads.
const poolCuts = 8

// startService records the upload pool and fleet recordings, starts the
// server and worker, and warms the server by storing and verifying
// every pool stream (and cut) once. The fleet is not warmed: its first
// round fetches the bundles, and the fleet metric takes the best round.
func startService(dir string, seed uint64, sz sizes, procs int, ck *checker) (*service, error) {
	s := &service{dir: dir, procs: procs}
	for _, name := range append(append([]string(nil), servicePrograms...), "fuzz") {
		for k := 0; k < sz.poolSeeds; k++ {
			rec := name
			if name == "fuzz" {
				rec = fmt.Sprintf("fuzz-%d", deriveSeed(seed, "pool", "fuzz", fmt.Sprint(k))%1_000_000)
			}
			ps, err := recordPool(rec, deriveSeed(seed, "pool", name, fmt.Sprint(k)))
			if err != nil {
				return nil, err
			}
			s.pool = append(s.pool, ps)
		}
	}
	for _, name := range fleetPrograms {
		prog, err := workload.ProgramByName(name, serviceThreads)
		if err != nil {
			return nil, err
		}
		cfg := serviceConfig(seed, "fleet-"+name)
		cfg.CaptureSignatures = false
		cfg.CheckpointEveryInstrs = fleetCheckpointInstrs
		b, err := core.Record(prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet recording %s: %w", name, err)
		}
		local, err := core.Replay(prog, b)
		if err != nil {
			return nil, fmt.Errorf("fleet recording %s: local replay: %w", name, err)
		}
		s.fleet = append(s.fleet, fleetItem{name: name, prog: prog, b: b, local: local})
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := ingest.DefaultConfig()
	cfg.StoreDir = dir
	cfg.Shards = procs
	cfg.Verifiers = procs
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = srv
	for i := range s.pool {
		ps := &s.pool[i]
		ps.dataObj, ps.cutObj = objectPath(dir, ps.data), objectPath(dir, ps.cut)
	}
	s.served = make(chan error, 1)
	go func() { s.served <- srv.Serve() }()
	s.worked = make(chan error, 1)
	w := &fleet.Worker{Addr: srv.Addr(), Slots: procs}
	go func() { s.worked <- w.Run() }()

	// Warm-up: store and verify every pool stream and cut.
	var warm []*upload
	for i := range s.pool {
		warm = append(warm, &upload{tenant: "warmup", data: s.pool[i].data, want: ingest.StatusAccepted, ps: &s.pool[i]})
		if i < poolCuts {
			warm = append(warm, &upload{tenant: "warmup", data: s.pool[i].cut, want: ingest.StatusTorn, ps: &s.pool[i]})
		}
	}
	for _, u := range warm {
		u.digest, _, _, u.err = ingest.Upload(srv.Addr(), u.tenant, u.data, 3, 5*time.Millisecond)
		ck.noErr(u.err, "warm-up upload")
	}
	srv.WaitIdle()
	for _, u := range warm {
		if u.err == nil {
			v, ok := srv.Verdict(u.tenant, u.digest)
			u.check(v, ok, ck)
		}
	}
	return s, nil
}

// recordPool records one pool stream and its expected verdict. Pool
// streams carry no checkpoints, so an upload is the recording's logs
// alone and the stage measures the per-upload path rather than the
// copying of memory images.
func recordPool(name string, seed uint64) (poolStream, error) {
	prog, err := workload.ProgramByName(name, serviceThreads)
	if err != nil {
		return poolStream{}, err
	}
	cfg := serviceConfig(seed, "pool-"+name)
	cfg.CheckpointEveryInstrs = 0
	cfg.CaptureSignatures = false
	var buf bytes.Buffer
	if _, err := core.StreamRecord(prog, cfg, &buf); err != nil {
		return poolStream{}, fmt.Errorf("pool %s: %w", name, err)
	}
	data := buf.Bytes()
	sv, err := core.SalvageStream(data)
	if err != nil {
		return poolStream{}, fmt.Errorf("pool %s: %w", name, err)
	}
	rr, err := core.Replay(prog, sv.Bundle)
	if err != nil {
		return poolStream{}, fmt.Errorf("pool %s: replay: %w", name, err)
	}
	return poolStream{name: name, data: data, cut: data[:len(data)/2], steps: rr.Steps, memsum: rr.MemChecksum}, nil
}

// objectPath is where an ingest.Store rooted at dir keeps data: under
// objects/<hh>/<sha256>.qstream. The benchmark removes stored streams
// between uploads so that each upload but a re-send writes the store.
func objectPath(dir string, data []byte) string {
	sum := sha256.Sum256(data)
	d := hex.EncodeToString(sum[:])
	return filepath.Join(dir, "objects", d[:2], d+".qstream")
}

// close stops the server and worker, waits for both, and removes the
// store.
func (s *service) close() error {
	if s.srv == nil {
		return os.RemoveAll(s.dir)
	}
	err := s.srv.Close()
	<-s.served
	<-s.worked
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// upload is one session of a service stage.
type upload struct {
	tenant string
	data   []byte
	want   ingest.VerdictStatus // 0: no verdict expected (duplicate or severed session)
	dup    bool                 // re-sends an earlier upload's (tenant, stream)
	sever  bool                 // ingest.Client.UploadTorn: cut mid-session, no FINISH
	ps     *poolStream
	obj    string  // where the store keeps data
	prev   *upload // the stage's previous upload of the same bytes, if any

	due      time.Time
	started  time.Time
	acked    time.Time
	verdict  time.Time
	digest   string
	wasDup   bool
	retries  int
	err      error
	resolved chan struct{} // closed when the verdict arrives (closed-loop clients wait on it)
	ended    chan struct{} // closed when the session ends (a later upload of the same bytes waits on it)
}

// check compares a published verdict with the upload's expectation.
func (u *upload) check(v ingest.Verdict, ok bool, ck *checker) {
	if !ok {
		ck.ok(false, "%s: no verdict for %s", u.ps.name, u.digest)
		return
	}
	if u.want == ingest.StatusAccepted {
		ck.ok(v.Status == ingest.StatusAccepted && v.Steps == u.ps.steps && v.MemChecksum == u.ps.memsum,
			"%s: verdict %v steps %d sum %x, want accepted steps %d sum %x", u.ps.name, v.Status, v.Steps, v.MemChecksum, u.ps.steps, u.ps.memsum)
		return
	}
	ck.ok(v.Status == u.want, "%s: verdict %v, want %v (%s)", u.ps.name, v.Status, u.want, v.Detail)
}

// watcher polls the server's verdict board for uploads awaiting a
// verdict, stamps each with the time it was seen, and samples the
// queue gauges while it runs.
type watcher struct {
	srv *ingest.Server
	mu  sync.Mutex
	out []*upload
	ck  *checker

	verifyQueueMax, shardQueueMax int
	stop                          chan struct{}
	done                          chan struct{}
}

// watchPoll is the verdict polling period; it bounds the resolution of
// every upload→verdict latency.
const watchPoll = 100 * time.Microsecond

// openRate is the open loop's upload rate per second. The run checks
// that it stays below maxUtilisation of the closed loop's capacity.
const openRate = 400

// maxUtilisation bounds openRate over the best closed-loop capacity, so
// that verdict latency measures service time rather than queue growth.
// The closed loop keeps at most procs uploads in flight, so its rate is
// a lower bound on capacity and the check errs on the safe side.
const maxUtilisation = 0.7

func newWatcher(srv *ingest.Server, ck *checker) *watcher {
	w := &watcher{srv: srv, ck: ck, stop: make(chan struct{}), done: make(chan struct{})}
	go w.run()
	return w
}

func (w *watcher) add(u *upload) {
	w.mu.Lock()
	w.out = append(w.out, u)
	w.mu.Unlock()
}

func (w *watcher) run() {
	defer close(w.done)
	for i := 0; ; i++ {
		select {
		case <-w.stop:
			return
		default:
		}
		time.Sleep(watchPoll)
		now := time.Now()
		w.mu.Lock()
		keep := w.out[:0]
		for _, u := range w.out {
			v, ok := w.srv.Verdict(u.tenant, u.digest)
			if !ok {
				keep = append(keep, u)
				continue
			}
			u.verdict = now
			u.check(v, true, w.ck)
			close(u.resolved)
		}
		for j := len(keep); j < len(w.out); j++ {
			w.out[j] = nil
		}
		w.out = keep
		w.mu.Unlock()
		if i%50 == 0 {
			c := w.srv.Counters()
			w.verifyQueueMax = max(w.verifyQueueMax, c.VerifyQueue)
			w.shardQueueMax = max(w.shardQueueMax, c.ShardQueue)
		}
	}
}

// drain waits up to limit for every watched upload's verdict, stops the
// watcher, and counts the ones still missing as failures.
func (w *watcher) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		n := len(w.out)
		w.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(w.stop)
	<-w.done
	for _, u := range w.out {
		w.ck.ok(false, "%s: no verdict within %v", u.ps.name, limit)
	}
	w.out = nil
}

// send performs one upload session and stamps its times. An upload
// other than a re-send first removes its bytes from the store, so the
// server writes them afresh and must not report a duplicate; a re-send
// must be reported as one. The verifier reads an upload back before
// the ack, so the removal cannot disturb an earlier upload's verdict;
// it waits for the end of the previous session with the same bytes.
func (s *service) send(u *upload, tr *tracer, parent, run int, w *watcher, ck *checker) {
	defer close(u.ended)
	if u.prev != nil {
		select {
		case <-u.prev.ended:
		case <-time.After(10 * time.Second):
			ck.ok(false, "%s: earlier upload of the same bytes did not end", u.ps.name)
		}
	}
	if !u.dup && !u.sever {
		if err := os.Remove(u.obj); err != nil && !os.IsNotExist(err) {
			ck.noErr(err, u.ps.name+": remove stored stream")
		}
	}
	u.started = time.Now()
	if u.sever {
		c, err := ingest.Dial(s.srv.Addr())
		if ck.noErr(err, "dial for severed upload") {
			ck.noErr(c.UploadTorn(u.tenant, u.data, len(u.data)/2), "severed upload")
			c.Close()
		}
		return
	}
	u.digest, u.wasDup, u.retries, u.err = ingest.Upload(s.srv.Addr(), u.tenant, u.data, 3, 5*time.Millisecond)
	u.acked = time.Now()
	tr.add("ingest.upload", u.started, u.acked, parent, run)
	if !ck.noErr(u.err, u.ps.name+": upload") {
		return
	}
	// A re-send must in addition get no new verdict (openLoop counts them).
	ck.ok(u.wasDup == u.dup, "%s: acked as duplicate %v, want %v", u.ps.name, u.wasDup, u.dup)
	if u.want != 0 {
		w.add(u)
	}
}

// openResult is the open-loop stage's outcome.
// It keeps sums and durations rather than the uploads, so a run's memory
// does not grow with its length.
type openResult struct {
	latencies                     []time.Duration // due → verdict, one per timed upload
	lags                          []time.Duration // due → session start, every upload
	sessions, waits               time.Duration   // summed hello → ack, and ack → verdict
	acked, dups, retries, severed int
	shed                          uint64 // sessions the server shed
	verifyQMax, shardQMax         int
	traced                        bool
}

// mixFor names upload i's kind in the open loop's fixed 20-upload
// pattern: 16 whole streams, 2 cut streams (verified as torn), 1
// re-send of the upload three before it, 1 severed session.
func mixFor(i int) (cut, dup, sever bool) {
	switch i % 20 {
	case 6, 13:
		return true, false, false
	case 9:
		return false, true, false
	case 17:
		return false, false, true
	}
	return false, false, false
}

// openLoop uploads n sessions at openRate from procs uploaders, each
// due at start + i/openRate, and times every verdict from its due time.
func (s *service) openLoop(n int, tr *tracer, run int, ck *checker) openResult {
	s.epoch++
	root := tr.begin("service.open_loop", -1, run)
	defer tr.end(root)
	before := s.srv.Counters()
	w := newWatcher(s.srv, ck)
	ups := make([]*upload, n)
	last := make(map[string]*upload) // object path → latest upload of those bytes
	for i := range ups {
		cut, dup, sever := mixFor(i)
		ps := &s.pool[i%len(s.pool)]
		u := &upload{tenant: fmt.Sprintf("open%d-%d", s.epoch, i), data: ps.data, want: ingest.StatusAccepted, ps: ps, obj: ps.dataObj,
			resolved: make(chan struct{}), ended: make(chan struct{})}
		switch {
		case cut:
			ps = &s.pool[(i/10)%poolCuts]
			u.data, u.ps, u.obj, u.want = ps.cut, ps, ps.cutObj, ingest.StatusTorn
		case dup:
			prev := ups[i-3]
			u.tenant, u.data, u.ps, u.obj, u.want, u.dup = prev.tenant, prev.data, prev.ps, prev.obj, 0, true
		case sever:
			u.want, u.sever = 0, true
		}
		if !u.sever {
			u.prev, last[u.obj] = last[u.obj], u
		}
		ups[i] = u
	}

	jobs := make(chan *upload)
	var wg sync.WaitGroup
	for k := 0; k < s.procs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range jobs {
				s.send(u, tr, root, run, w, ck)
			}
		}()
	}
	start := time.Now()
	for i, u := range ups {
		u.due = start.Add(time.Duration(i) * time.Second / openRate)
		if d := time.Until(u.due); d > 0 {
			time.Sleep(d)
		}
		jobs <- u
	}
	close(jobs)
	wg.Wait()
	w.drain(10 * time.Second)
	res := openResult{verifyQMax: w.verifyQueueMax, shardQMax: w.shardQueueMax}
	for _, u := range ups {
		res.lags = append(res.lags, u.started.Sub(u.due))
		res.retries += u.retries
		switch {
		case u.sever:
			res.severed++
			continue
		case u.err != nil:
			continue
		}
		res.acked++
		res.sessions += u.acked.Sub(u.started)
		if u.wasDup {
			res.dups++
		}
		if !u.verdict.IsZero() {
			res.latencies = append(res.latencies, u.verdict.Sub(u.due))
			res.waits += u.verdict.Sub(u.acked)
			tr.add("ingest.verify_wait", u.acked, u.verdict, root, run)
		}
	}
	severed, verdicts := res.severed, len(res.latencies)
	// Severed sessions are noticed asynchronously; give the server a
	// moment to count them, then check that it counted every one and
	// published a verdict for every verified upload and no re-send.
	var after ingest.Counters
	for t := time.Now(); ; time.Sleep(time.Millisecond) {
		after = s.srv.Counters()
		if int(after.Aborted-before.Aborted) >= severed || time.Since(t) > 5*time.Second {
			break
		}
	}
	res.shed = after.Shed - before.Shed
	ck.ok(int(after.Aborted-before.Aborted) == severed, "server counted %d severed sessions, sent %d", after.Aborted-before.Aborted, severed)
	ck.ok(published(after)-published(before) == uint64(verdicts), "server published %d verdicts, expected %d", published(after)-published(before), verdicts)
	return res
}

// published totals a counters snapshot's verdicts.
func published(c ingest.Counters) uint64 {
	var n uint64
	for _, v := range c.VerdictsBy {
		n += v
	}
	return n
}

// closedLoop runs procs clients for d, each uploading a whole stream and
// waiting for its verdict before the next, and returns the verdicts
// completed per second. Each client uploads its own share of the pool,
// so no two sessions carry the same bytes at once.
func (s *service) closedLoop(d time.Duration, tr *tracer, run int, ck *checker) float64 {
	s.epoch++
	root := tr.begin("service.closed_loop", -1, run)
	defer tr.end(root)
	w := newWatcher(s.srv, ck)
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	clients := min(s.procs, len(s.pool))
	share := len(s.pool) / clients
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				ps := &s.pool[k*share+i%share]
				u := &upload{tenant: fmt.Sprintf("closed%d-%d-%d", s.epoch, k, i), data: ps.data, want: ingest.StatusAccepted, ps: ps, obj: ps.dataObj,
					resolved: make(chan struct{}), ended: make(chan struct{})}
				s.send(u, tr, root, run, w, ck)
				if u.err != nil {
					continue
				}
				select {
				case <-u.resolved:
				case <-time.After(10 * time.Second):
					return // the watcher's drain counts it as failed
				}
				if u.verdict.Sub(start) <= d {
					done.Add(1)
				}
			}
		}(k)
	}
	wg.Wait()
	w.drain(10 * time.Second)
	return float64(done.Load()) / d.Seconds()
}

// fleetTotals sums fleet rounds.
type fleetTotals struct {
	rounds      [][]phase     // [round][recording]: upload + distributed replay
	local       phase         // local serial replay, all rounds
	upload, rep time.Duration // all rounds
	jobs        uint64        // per round
}

// fleetRound replays every fleet recording through the fleet client,
// verifies it, and compares it with a fresh local serial replay.
func (s *service) fleetRound(client *fleet.Client, tr *tracer, run int, ft *fleetTotals, ck *checker) {
	root := tr.begin("service.fleet", -1, run)
	defer tr.end(root)
	var jobs uint64
	round := make([]phase, len(s.fleet))
	for i, it := range s.fleet {
		start := time.Now()
		sp := tr.begin("fleet.upload", root, run)
		digest, err := client.Upload(it.b)
		tr.end(sp)
		up := time.Since(start)
		if !ck.noErr(err, it.name+": fleet upload") {
			continue
		}
		sp = tr.begin("fleet.replay", root, run)
		fr, err := core.ReplayDistributed(it.prog, it.b, client, digest)
		tr.end(sp)
		total := time.Since(start)
		if !ck.noErr(err, it.name+": fleet replay") {
			continue
		}
		round[i].add(fr.Steps, total)
		ft.upload += up
		ft.rep += total - up
		if ck.noErr(core.Verify(it.b, fr), it.name+": verify fleet replay") {
			ck.ok(sameReplay(fr, it.local), "%s: fleet replay differs from local", it.name)
		}
		start = time.Now()
		sp = tr.begin("replay.local_for_fleet", root, run)
		lr, err := core.Replay(it.prog, it.b)
		tr.end(sp)
		ft.local.add(lr.Steps, time.Since(start))
		if ck.noErr(err, it.name+": local replay") {
			ck.ok(sameReplay(lr, it.local), "%s: local replay not repeatable", it.name)
		}
		jobs += uint64(len(it.b.IntervalCheckpoints) + 1)
	}
	ft.jobs = jobs
	ft.rounds = append(ft.rounds, round)
}

// storeDir picks the service store's directory inside the benchmark's
// build directory, unique to this process.
func storeDir(buildDir string, rep int) string {
	return filepath.Join(buildDir, fmt.Sprintf("store-%d-%d", os.Getpid(), rep))
}

// percentile returns the q-quantile (0..1) of ds by the nearest-rank rule.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}
