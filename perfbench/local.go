package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/races"
	"repro/internal/replay"
)

// checker counts checked operations and the ones that failed. Any
// failure makes the run incorrect.
type checker struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string
}

// ok records one checked operation; cond false is a failure.
func (c *checker) ok(cond bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !cond {
		c.failed++
		if len(c.errs) < 8 {
			c.errs = append(c.errs, fmt.Sprintf(format, args...))
		}
	}
}

// noErr records one checked operation that failed iff err != nil.
func (c *checker) noErr(err error, what string) bool {
	c.ok(err == nil, "%s: %v", what, err)
	return err == nil
}

// phase accumulates one pipeline phase over whole rounds: simulated
// instructions processed and host time spent.
type phase struct {
	instrs uint64
	dur    time.Duration
}

func (p *phase) add(instrs uint64, d time.Duration) {
	p.instrs += instrs
	p.dur += d
}

// minstrPerS is the phase's throughput in simulated Minstr per host second.
func (p phase) minstrPerS() float64 {
	if p.dur <= 0 {
		return 0
	}
	return float64(p.instrs) / p.dur.Seconds() / 1e6
}

// phases is one item's host time per pipeline phase in one round.
type phases struct {
	record, replay, par, races phase
}

// localTotals collects the local pipeline's rounds: host times per round
// and item, and the simulated statistics, which are per round and
// identical in every round.
type localTotals struct {
	rounds     [][]phases // [round][item]
	allocBytes uint64     // heap bytes allocated by all rounds
	round      roundStats
}

// bestRate is a phase's throughput over a best round: each item's
// fastest round, summed over the items. The host is shared, so a round
// can be slowed by work that is not the benchmark's; the fastest of
// several identical rounds is the steadiest estimate of what the code
// itself costs.
func bestRate[T any](rounds [][]T, pick func(*T) phase) float64 {
	var best phase
	for i := range rounds[0] {
		b := pick(&rounds[0][i])
		for r := range rounds {
			if p := pick(&rounds[r][i]); p.dur < b.dur {
				b = p
			}
		}
		best.add(b.instrs, b.dur)
	}
	return best.minstrPerS()
}

// roundStats is one round's deterministic simulated statistics.
type roundStats struct {
	recorded    uint64 // instructions recorded
	logBytes    uint64 // chunk log + input log bytes
	bundleBytes uint64 // marshaled v2 bundle or stream bytes
	fullCycles  uint64 // simulated cycles, recording on, less checkpoint costs
	ckptCycles  uint64 // simulated cycles of flight-recorder checkpoints
	offCycles   uint64 // simulated cycles, recording off
	fullAcct    [perf.NumComponents]uint64
	accesses    uint64 // cache loads + stores (recorded runs)
	misses      uint64
	snoops      uint64 // snoops observed by the recorders
	chunks      uint64 // chunk log entries
	syscalls    uint64
	inputBytes  uint64
	intervals   uint64 // checkpoint intervals available to parallel replay
	candidates  uint64 // race candidates after screening
	confirmed   uint64 // candidate pairs holding a confirmed race
	racesFound  uint64
	digest      [sha256.Size]byte // ledger of every simulated statistic
}

// runRound sends every item through the local pipeline once, adding its
// phase times to tot and checking every output. The returned stats are
// the round's simulated ledger; every round of a run must produce the
// same one. tr is nil in untraced rounds.
func runRound(items []item, procs int, tr *tracer, run int, ck *checker) ([]phases, roundStats) {
	var rs roundStats
	ph := make([]phases, len(items))
	ledger := sha256.New()
	for i := range items {
		runItem(&items[i], procs, tr, run, &ph[i], ck, &rs, ledger)
	}
	copy(rs.digest[:], ledger.Sum(nil))
	return ph, rs
}

func runItem(it *item, procs int, tr *tracer, run int, tot *phases, ck *checker, rs *roundStats, ledger hash.Hash) {
	root := tr.begin("item."+it.name, -1, run)
	defer tr.end(root)

	off := it.cfg
	off.Mode = machine.ModeOff
	sp := tr.begin("machine.native", root, run)
	native, err := machine.New(it.prog, off).Run()
	tr.end(sp)
	if !ck.noErr(err, it.name+": native run") {
		return
	}

	// Record and encode to bytes.
	var b *core.Bundle
	var data []byte
	start := time.Now()
	if it.stream {
		var buf bytes.Buffer
		sp = tr.begin("core.stream_record", root, run)
		b, err = core.StreamRecord(it.prog, it.cfg, &buf)
		tr.end(sp)
		data = buf.Bytes()
	} else {
		sp = tr.begin("core.record", root, run)
		b, err = core.Record(it.prog, it.cfg)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("core.marshal", root, run)
			data = b.Marshal()
			tr.end(sp)
		}
	}
	recTime := time.Since(start)
	if !ck.noErr(err, it.name+": record") {
		return
	}
	st := b.RecordStats
	tot.record.add(st.Retired, recTime)
	ck.ok(native.MemChecksum == b.MemChecksum && bytes.Equal(native.Output, b.Output) &&
		reflect.DeepEqual(native.RetiredPerThread, b.RetiredPerThread),
		"%s: native and recorded runs differ", it.name)

	// Decode (or salvage), replay serially, verify.
	start = time.Now()
	var d *core.Bundle
	if it.stream {
		sp = tr.begin("segment.salvage", root, run)
		var sv *core.Salvaged
		sv, err = core.SalvageStream(data)
		tr.end(sp)
		if err == nil {
			d = sv.Bundle
			if it.window {
				d, err = sv.Tail()
			}
		}
	} else {
		sp = tr.begin("core.unmarshal", root, run)
		d, err = core.UnmarshalBundle(data)
		tr.end(sp)
		if err == nil {
			ck.ok(d.Format == core.FormatV2LZ || d.Format == core.FormatV2Raw, "%s: bundle format %v, want v2", it.name, d.Format)
		}
	}
	if !ck.noErr(err, it.name+": decode") {
		return
	}
	sp = tr.begin("replay.serial", root, run)
	rr, err := core.Replay(it.prog, d)
	tr.end(sp)
	if !ck.noErr(err, it.name+": replay") {
		return
	}
	sp = tr.begin("core.verify", root, run)
	err = core.Verify(d, rr)
	tr.end(sp)
	tot.replay.add(rr.Steps, time.Since(start))
	if !ck.noErr(err, it.name+": verify") {
		return
	}

	intervals := uint64(0)
	var candidates, confirmed, found uint64
	if !it.window {
		// Checkpoint-partitioned replay on procs workers.
		start = time.Now()
		sp = tr.begin("replay.parallel", root, run)
		pr, err := core.ReplayWorkers(it.prog, d, procs)
		tr.end(sp)
		if ck.noErr(err, it.name+": parallel replay") {
			err = core.Verify(d, pr)
			tot.par.add(pr.Steps, time.Since(start))
			if ck.noErr(err, it.name+": verify parallel replay") {
				ck.ok(sameReplay(rr, pr), "%s: parallel replay differs from serial", it.name)
			}
		}
		intervals = uint64(len(d.IntervalCheckpoints) + 1)

		// Race analysis. A salvaged stream carries no signature logs, so
		// stream items analyse the recorder's own bundle.
		src := d
		if it.stream {
			src = b
		}
		start = time.Now()
		sp = tr.begin("races.screen", root, run)
		cands, err := races.Screen(src)
		tr.end(sp)
		if ck.noErr(err, it.name+": screen") {
			sp = tr.begin("races.detect", root, run)
			rep, err := races.Detect(it.prog, src)
			tr.end(sp)
			tot.races.add(st.Retired, time.Since(start))
			if ck.noErr(err, it.name+": detect") {
				ck.ok(len(rep.Candidates) == len(cands), "%s: detect screened %d candidates, screen %d", it.name, len(rep.Candidates), len(cands))
				candidates, confirmed, found = uint64(len(cands)), uint64(rep.ConfirmedPairs), uint64(len(rep.Races))
			}
		}
	}

	rs.recorded += st.Retired
	rs.logBytes += st.Session.ChunkBytes() + st.Session.InputBytes()
	rs.bundleBytes += uint64(len(data))
	// Checkpoints are the flight-recorder extension, not part of the
	// paper's recording stack; their cost is split out so that
	// sim_overhead_pct stays comparable with the paper's figure.
	ckpt := st.Checkpoints * (it.cfg.Perf.CheckpointCost + it.cfg.Perf.RecCheckpointExtra)
	rs.fullCycles += st.Cycles - ckpt
	rs.ckptCycles += ckpt
	rs.offCycles += native.Cycles
	bd := st.Acct.Breakdown()
	for c := range bd {
		rs.fullAcct[c] += bd[c]
	}
	for _, cs := range st.CacheStats {
		rs.accesses += cs.Loads + cs.Stores
		rs.misses += cs.Misses
	}
	for _, ms := range st.MRRStats {
		rs.snoops += ms.Snoops
		rs.chunks += ms.Chunks
	}
	rs.syscalls += st.Syscalls
	rs.inputBytes += st.Session.InputBytes()
	rs.intervals += intervals
	rs.candidates += candidates
	rs.confirmed += confirmed
	rs.racesFound += found

	// The ledger: every simulated statistic of this item, recorded and
	// native, so a host-speed-only change can show them unchanged.
	fmt.Fprintf(ledger, "%s|cycles %d %d|acct %v %v|retired %d %v|sys %d ctx %d sig %d mem %d|cache %v|bus %v|",
		it.name, st.Cycles, native.Cycles, bd, native.Acct.Breakdown(), st.Retired, st.RetiredPerThread,
		st.Syscalls, st.CtxSwitches, st.SignalsDelivered, st.MemAccesses, st.CacheStats, st.BusStats)
	for _, ms := range st.MRRStats {
		fmt.Fprintf(ledger, "mrr %d %d %d %d %d|", ms.Chunks, ms.SnoopHits, ms.Snoops, ms.SigTests, ms.SigHits)
	}
	fmt.Fprintf(ledger, "log %d %d|bytes %d|ckpt %d|steps %d|races %d %d %d\n",
		st.Session.ChunkBytes(), st.Session.InputBytes(), len(data), st.Checkpoints, rr.Steps, candidates, confirmed, found)
}

// sameReplay reports whether two replays of one bundle reached the same
// final state.
func sameReplay(a, b *replay.Result) bool {
	return a.MemChecksum == b.MemChecksum && a.Steps == b.Steps && bytes.Equal(a.Output, b.Output) &&
		reflect.DeepEqual(a.FinalContexts, b.FinalContexts) && reflect.DeepEqual(a.RetiredPerThread, b.RetiredPerThread)
}
