package ingest

// The fleet job broker: the server side of the job plane. Worker
// processes ATTACH with a slot count and are fed JOB frames; submitters
// ATTACH and push JOB frames whose bodies the broker never inspects —
// a job is an opaque dispatch envelope naming a content-addressed
// bundle, and the broker's whole contract is routing: every submitted
// job eventually produces exactly one RESULT back on the submitter's
// connection (first result wins when re-dispatch races a straggler).
//
// Fault model: a worker that dies, hangs, or falls off the network has
// its in-flight jobs re-queued — on connection teardown immediately, on
// a silent stall when the job's deadline lapses. Duplicated execution
// is safe because every job is a pure function of the bundle it names;
// duplicate results are discarded by ID.

import (
	"sync"
	"time"

	"repro/internal/wire"
)

// defaultJobTimeout is the in-flight deadline when Config.JobTimeout is
// zero.
const defaultJobTimeout = 30 * time.Second

// fleetConn is one attached fleet session (worker or submitter).
type fleetConn struct {
	*peer
	slots int // worker concurrency; 0 for submitters
	// sent counts the dispatches of each job ID in flight on this worker
	// (broker.mu) — a straggler re-dispatched to the same worker runs,
	// and may answer, twice.
	sent map[uint64]int
	gone bool // torn down (broker.mu)
}

// brokerJob is one job on the board.
type brokerJob struct {
	id     uint64 // broker-global routing ID
	body   []byte // opaque dispatch envelope
	sub    *fleetConn
	subID  uint64 // submitter's own ID, echoed in the result
	queued bool   // sitting in pending (broker.mu)
	// deadline is when the current dispatch is declared a straggler
	// (meaningful only while !queued).
	deadline time.Time
}

// broker owns the job board.
type broker struct {
	s          *Server
	jobTimeout time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	pending []uint64 // dispatch queue (FIFO of job IDs)
	jobs    map[uint64]*brokerJob
	nextID  uint64
	closed  bool

	stopScan chan struct{}
	wg       sync.WaitGroup
}

func newBroker(s *Server, jobTimeout time.Duration) *broker {
	if jobTimeout <= 0 {
		jobTimeout = defaultJobTimeout
	}
	b := &broker{
		s:          s,
		jobTimeout: jobTimeout,
		jobs:       make(map[uint64]*brokerJob),
		stopScan:   make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	b.wg.Add(1)
	go b.scan()
	return b
}

// close stops the deadline scanner and unblocks every feeder. Live
// connections are closed by the server before this runs.
func (b *broker) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	close(b.stopScan)
	b.cond.Broadcast()
	b.wg.Wait()
}

// scan re-queues in-flight jobs whose deadline lapsed: a worker that
// silently stalled (or whose death the OS has not surfaced yet) loses
// the job to a faster peer. The original dispatch is not cancelled —
// whichever result arrives first wins.
func (b *broker) scan() {
	defer b.wg.Done()
	period := b.jobTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-b.stopScan:
			return
		case now := <-t.C:
			b.mu.Lock()
			requeued := false
			for id, j := range b.jobs {
				if !j.queued && now.After(j.deadline) {
					j.queued = true
					b.pending = append(b.pending, id)
					requeued = true
				}
			}
			b.mu.Unlock()
			if requeued {
				b.cond.Broadcast()
			}
		}
	}
}

// submit puts one job on the board.
func (b *broker) submit(sub *fleetConn, subID uint64, body []byte) {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.jobs[id] = &brokerJob{id: id, body: body, sub: sub, subID: subID, queued: true}
	b.pending = append(b.pending, id)
	b.mu.Unlock()
	b.cond.Signal()
}

// nextJob blocks until w may be fed another job (or the broker/worker
// is done, returning nil). Marks the job in flight on w.
func (b *broker) nextJob(w *fleetConn) *brokerJob {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.closed || w.gone {
			return nil
		}
		if len(w.sent) < w.slots && len(b.pending) > 0 {
			id := b.pending[0]
			b.pending = b.pending[1:]
			j := b.jobs[id]
			if j == nil || !j.queued {
				continue // completed (or re-dispatched) while queued
			}
			j.queued = false
			j.deadline = time.Now().Add(b.jobTimeout)
			w.sent[id]++
			return j
		}
		b.cond.Wait()
	}
}

// complete routes one finished job's result to its submitter. Stale
// results — the job already completed elsewhere, or the submitter hung
// up — are discarded.
func (b *broker) complete(w *fleetConn, id uint64, data []byte, errMsg string) {
	b.mu.Lock()
	// Frees a slot even when the result is stale.
	if w.sent[id]--; w.sent[id] <= 0 {
		delete(w.sent, id)
	}
	j := b.jobs[id]
	if j != nil {
		delete(b.jobs, id)
	}
	var sub *fleetConn
	var subID uint64
	if j != nil && !j.sub.gone {
		sub, subID = j.sub, j.subID
	}
	b.mu.Unlock()
	b.cond.Broadcast() // a slot freed; feeders may proceed
	if sub != nil {
		// Chunks of different jobs may interleave on a submitter's
		// connection; the ID keeps reassembly unambiguous. A failed write
		// severs the submitter, whose session then tears itself down.
		sendResult(subID, data, errMsg, func(p []byte) error { return sub.write(FrameResult, p) })
	}
}

// dispatched reports whether job id is in flight on w: the only IDs w
// may send RESULT chunks for.
func (b *broker) dispatched(w *fleetConn, id uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return w.sent[id] > 0
}

// workerGone tears down a worker: everything it had in flight goes back
// on the board.
func (b *broker) workerGone(w *fleetConn) {
	b.mu.Lock()
	w.gone = true
	for id := range w.sent {
		if j := b.jobs[id]; j != nil && !j.queued {
			j.queued = true
			b.pending = append(b.pending, id)
		}
	}
	w.sent = make(map[uint64]int)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// submitterGone tears down a submitter: its unfinished jobs are dropped
// from the board (results would have nowhere to go).
func (b *broker) submitterGone(sub *fleetConn) {
	b.mu.Lock()
	sub.gone = true
	for id, j := range b.jobs {
		if j.sub == sub {
			delete(b.jobs, id) // pending entries skip via the nil check
		}
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// handleAttach runs one fleet session from its ATTACH frame on. Called
// on the connection handler goroutine; returns when the session ends.
func (b *broker) handleAttach(p *peer, payload []byte) {
	at, err := decodeAttach(payload)
	if err == nil {
		err = checkVersion(at.Version)
	}
	if err != nil {
		b.s.ctrs.rejected.Add(1)
		p.writeError(CodeProtocol, false, "bad attach: "+err.Error())
		return
	}
	fc := &fleetConn{peer: p}
	a := wire.GetAppender()
	appendWelcome(a, welcomePayload{Version: protoVersion, Credit: uint64(b.s.cfg.Credit)})
	err = fc.write(FrameWelcome, a.Buf)
	wire.PutAppender(a)
	if err != nil {
		return
	}
	switch at.Role {
	case roleWorker:
		fc.slots = int(at.Slots)
		if fc.slots < 1 {
			fc.slots = 1
		}
		fc.sent = make(map[uint64]int)
		b.runWorker(fc)
	case roleSubmitter:
		b.runSubmitter(fc)
	}
}

// runWorker feeds jobs to an attached worker and routes its results.
// The feeder goroutine pulls from the board; the session goroutine
// (this one) reads RESULT frames, reassembling chunked results by ID.
// A RESULT for an ID not in flight on this worker, or one whose
// reassembled size passes MaxUploadBytes, is a protocol violation: the
// worker is severed and its jobs go back on the board.
func (b *broker) runWorker(fc *fleetConn) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			j := b.nextJob(fc)
			if j == nil {
				return
			}
			a := wire.GetAppender()
			appendJobFrame(a, jobPayload{ID: j.id, Body: j.body})
			err := fc.write(FrameJob, a.Buf)
			wire.PutAppender(a)
			if err != nil {
				b.workerGone(fc)
				return
			}
		}
	}()
	defer b.workerGone(fc)
	partial := make(map[uint64][]byte)
	for {
		kind, payload, err := readFrame(fc.conn)
		if err != nil {
			return
		}
		if kind != FrameResult {
			b.s.ctrs.rejected.Add(1)
			return
		}
		r, err := decodeResult(payload)
		if err != nil || !b.dispatched(fc, r.ID) ||
			len(partial[r.ID])+len(r.Data) > b.s.cfg.MaxUploadBytes {
			b.s.ctrs.rejected.Add(1)
			return
		}
		partial[r.ID] = append(partial[r.ID], r.Data...)
		if r.Last {
			data := partial[r.ID]
			delete(partial, r.ID)
			b.complete(fc, r.ID, data, r.Err)
		}
	}
}

// runSubmitter accepts jobs from an attached submitter until it hangs
// up. Results flow back asynchronously from complete().
func (b *broker) runSubmitter(fc *fleetConn) {
	defer b.submitterGone(fc)
	for {
		kind, payload, err := readFrame(fc.conn)
		if err != nil {
			return
		}
		if kind != FrameJob {
			b.s.ctrs.rejected.Add(1)
			return
		}
		j, err := decodeJobFrame(payload)
		if err != nil {
			b.s.ctrs.rejected.Add(1)
			return
		}
		b.submit(fc, j.ID, j.Body)
	}
}
