package ingest

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/workload"
)

// verifyJob is one stored bundle awaiting verification.
type verifyJob struct {
	tenant string
	digest string
	data   []byte
}

// verifierPool drains stored uploads in the background: a single
// drainer goroutine repeatedly grabs the pending batch and fans it out
// through the dispatch layer, where each task salvages the stream,
// rebuilds the recorded program from the manifest's name, replays it,
// and publishes a verdict. Parallelism is across bundles — the pool's
// workers — not within one replay. The queue is an in-memory list fed by shard workers —
// enqueue never blocks the ingest data path; the measured queue depth
// is the backlog signal.
type verifierPool struct {
	workers int

	mu    sync.Mutex
	cond  *sync.Cond
	queue []verifyJob
	stop  bool
	busy  int

	wg       sync.WaitGroup
	verdicts *verdictBoard
}

func newVerifierPool(workers int, board *verdictBoard) *verifierPool {
	if workers < 1 {
		workers = 1
	}
	p := &verifierPool{workers: workers, verdicts: board}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(1)
	go p.run()
	return p
}

// enqueue hands a stored bundle to the pool. Never blocks.
func (p *verifierPool) enqueue(j verifyJob) {
	p.mu.Lock()
	p.queue = append(p.queue, j)
	p.mu.Unlock()
	p.cond.Signal()
}

// depth returns the number of bundles waiting (not counting in-flight).
func (p *verifierPool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// waitIdle blocks until the queue is drained and no worker is mid-job.
func (p *verifierPool) waitIdle() {
	p.mu.Lock()
	for len(p.queue) > 0 || p.busy > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// close drains the queue and stops the workers.
func (p *verifierPool) close() {
	p.mu.Lock()
	p.stop = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// run is the drainer: it owns no per-job goroutines of its own — each
// drained batch goes through the same executor abstraction as every
// other parallel path, bounded by the pool's worker count.
func (p *verifierPool) run() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.stop {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.stop {
			p.mu.Unlock()
			return
		}
		batch := p.queue
		p.queue = nil
		p.busy += len(batch)
		p.mu.Unlock()

		dispatch.Local{Workers: p.workers}.Execute(dispatch.Spec{
			Tasks: len(batch),
			Run: func(i int) error {
				p.verdicts.publish(verifyBundle(batch[i]))
				p.mu.Lock()
				p.busy--
				p.mu.Unlock()
				p.cond.Broadcast() // wake waitIdle as well as the drainer
				return nil
			},
		})
	}
}

// programByName rebuilds the recorded program from a bundle's manifest
// name: catalogue workloads resolve through the suite, fuzz programs
// ("fuzz-<seed>") regenerate from their seed.
func programByName(name string, threads int) (*isa.Program, error) {
	return workload.ProgramByName(name, threads)
}

// verifyBundle is the whole per-bundle pipeline: salvage, rebuild,
// replay, compare. It never fails the ingest path — every outcome is a
// verdict.
func verifyBundle(j verifyJob) Verdict {
	v := Verdict{Tenant: j.tenant, Digest: j.digest}
	sv, err := core.SalvageStream(j.data)
	if err != nil {
		v.Status = StatusDiverged
		v.Detail = fmt.Sprintf("salvage: %v", err)
		return v
	}
	b := sv.Bundle
	v.Program = b.ProgramName
	v.Threads = b.Threads
	prog, err := programByName(b.ProgramName, b.Threads)
	if err != nil {
		v.Status = StatusUnverifiable
		v.Detail = err.Error()
		return v
	}
	rr, err := core.Replay(prog, b)
	if err != nil {
		v.Status = StatusDiverged
		v.Detail = fmt.Sprintf("replay: %v", err)
		return v
	}
	v.Steps = rr.Steps
	v.MemChecksum = rr.MemChecksum
	if b.Partial {
		// A torn upload (or torn recording) salvages to a validated prefix
		// with no reference final state: the prefix replayed cleanly, which
		// is all that can be asserted.
		v.Status = StatusTorn
		v.Detail = sv.Report.Reason
		return v
	}
	if err := core.Verify(b, rr); err != nil {
		v.Status = StatusDiverged
		v.Detail = err.Error()
		return v
	}
	v.Status = StatusAccepted
	return v
}
