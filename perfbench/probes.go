package main

import (
	"bytes"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/capo"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/replay"
	"repro/internal/signature"
	"repro/internal/wire"
)

// probeAccessCap bounds the traced accesses one item feeds to the cache
// and signature probes, and so the probes' memory.
const probeAccessCap = 1 << 21

// probeTotals is one pass of the layer probes over a workload's items:
// the layer calls the end-to-end pipeline makes internally, called here
// from the benchmark's own code so that each can be timed on its own.
type probeTotals struct {
	accesses, sigOps      uint64
	rawBytes, blockBytes  uint64
	framing, streamBytes  uint64
	sigHits, sigFalseHits uint64
	pairs                 uint64
	plainRecord           time.Duration // core.Record without a stream
	streamRecord          time.Duration // core.StreamRecord of the same run
}

// runProbes records each item again (plainly, streamed, and with exact
// signature tracking) and times the layers on the recording. Spans carry
// the times; the totals carry the counts.
func runProbes(items []item, tr *tracer, run int, ck *checker) probeTotals {
	var pt probeTotals
	for i := range items {
		it := &items[i]
		if it.window {
			continue
		}
		root := tr.begin("probe."+it.name, -1, run)
		probeItem(it, tr, root, run, ck, &pt)
		tr.end(root)
	}
	return pt
}

func probeItem(it *item, tr *tracer, root, run int, ck *checker, pt *probeTotals) {
	// segment: StreamRecord minus Record of the same run.
	start := time.Now()
	b, err := core.Record(it.prog, it.cfg)
	pt.plainRecord += time.Since(start)
	if !ck.noErr(err, it.name+": probe record") {
		return
	}
	var buf bytes.Buffer
	start = time.Now()
	sb, err := core.StreamRecord(it.prog, it.cfg, &buf)
	pt.streamRecord += time.Since(start)
	if ck.noErr(err, it.name+": probe stream record") {
		pt.framing += sb.RecordStats.StreamFramingBytes
		pt.streamBytes += sb.RecordStats.StreamBytes
	}

	// mrr: the same run with exact sets behind the signatures, which
	// splits signature hits into true and false conflicts.
	exact := it.cfg
	exact.MRR.ReadSig.TrackExact = true
	exact.MRR.WriteSig.TrackExact = true
	if eb, err := core.Record(it.prog, exact); ck.noErr(err, it.name+": probe exact record") {
		for _, ms := range eb.RecordStats.MRRStats {
			pt.sigHits += ms.SigHits
			pt.sigFalseHits += ms.SigFalseHits
		}
	}

	// chunk: encode and decode every chunk log.
	enc := it.cfg.Encoding
	logs := make([][]byte, len(b.ChunkLogs))
	sp := tr.begin("chunk.encode", root, run)
	for t, l := range b.ChunkLogs {
		logs[t] = l.Marshal(enc)
	}
	tr.end(sp)
	sp = tr.begin("chunk.decode", root, run)
	for _, data := range logs {
		_, err := chunk.UnmarshalLog(data)
		ck.noErr(err, it.name+": chunk decode")
	}
	tr.end(sp)

	// capo: the columnar input log.
	var in wire.Appender
	sp = tr.begin("capo.encode", root, run)
	capo.AppendColumnar(&in, b.InputLog.Records)
	tr.end(sp)
	var dec capo.LogDecoder
	sp = tr.begin("capo.decode", root, run)
	c := wire.CursorOf(in.Buf)
	got, err := dec.DecodeColumnar(&c, false)
	tr.end(sp)
	if ck.noErr(err, it.name+": capo decode") {
		ck.ok(len(got.Records) == len(b.InputLog.Records), "%s: columnar log lost records", it.name)
	}

	// wire: the LZ block codec over the raw log bytes.
	raw := append(bytes.Join(logs, nil), in.Buf...)
	var blk wire.Appender
	sp = tr.begin("wire.block_encode", root, run)
	wire.AppendBlockMethod(&blk, raw, wire.BlockLZ)
	tr.end(sp)
	sp = tr.begin("wire.block_decode", root, run)
	bc := wire.CursorOf(blk.Buf)
	back, _, err := wire.DecodeBlock(&bc, nil)
	tr.end(sp)
	if ck.noErr(err, it.name+": block decode") {
		ck.ok(bytes.Equal(back, raw), "%s: block codec round trip differs", it.name)
	}
	pt.rawBytes += uint64(len(raw))
	pt.blockBytes += uint64(len(blk.Buf))

	// analysis: concurrent chunk pairs.
	sp = tr.begin("analysis.pairs", root, run)
	pairs := analysis.ConcurrentPairs(b.ChunkLogs)
	tr.end(sp)
	pt.pairs += uint64(len(pairs))

	// cache and signature: the run's traced accesses through the models.
	_, events, err := core.TraceAccesses(it.prog, b)
	if !ck.noErr(err, it.name+": trace accesses") {
		return
	}
	if len(events) > probeAccessCap {
		events = events[:probeAccessCap]
	}
	cores := max(it.cfg.Cores, 1)
	var top uint64
	for _, ev := range events {
		top = max(top, ev.Addr)
	}
	bus := cache.NewBus(mem.New(top + 64))
	caches := make([]*cache.Cache, cores)
	for k := range caches {
		caches[k] = cache.New(it.cfg.Cache, bus, nil)
	}
	sp = tr.begin("cache.access", root, run)
	for _, ev := range events {
		cc := caches[ev.Thread%cores]
		addr := ev.Addr &^ (mem.WordSize - 1)
		switch ev.Kind {
		case replay.AccessWrite:
			cc.Store(addr, 0)
		case replay.AccessAtomic:
			cc.RMW(addr, func(old uint64) uint64 { return old + 1 })
		default:
			cc.Load(addr)
		}
	}
	tr.end(sp)
	pt.accesses += uint64(len(events))

	type sigPair struct{ read, write *signature.Signature }
	sigs := make([]sigPair, cores)
	for k := range sigs {
		sigs[k] = sigPair{signature.New(it.cfg.MRR.ReadSig), signature.New(it.cfg.MRR.WriteSig)}
	}
	sp = tr.begin("signature.op", root, run)
	for _, ev := range events {
		own, peer := &sigs[ev.Thread%cores], &sigs[(ev.Thread+1)%cores]
		line := cache.LineOf(ev.Addr)
		write := ev.Kind == replay.AccessWrite || ev.Kind == replay.AccessAtomic
		sat := false
		if write {
			sat = own.write.Insert(line)
			peer.read.Test(line)
		} else {
			sat = own.read.Insert(line)
		}
		peer.write.Test(line)
		if sat {
			own.read.Clear()
			own.write.Clear()
		}
		pt.sigOps += 2
		if write {
			pt.sigOps++
		}
	}
	tr.end(sp)
}
