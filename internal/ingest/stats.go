package ingest

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/report"
)

// VerdictStatus classifies what the verifier pool concluded about one
// stored bundle.
type VerdictStatus uint8

// Verdict statuses.
const (
	// StatusAccepted: the bundle salvaged complete and deterministic
	// replay reproduced the reference final state bit-for-bit.
	StatusAccepted VerdictStatus = iota + 1
	// StatusTorn: the bundle is a salvageable prefix (the upload or the
	// recording behind it was cut short); the surviving prefix replayed
	// cleanly up to the salvage horizon.
	StatusTorn
	// StatusDiverged: replay of the bundle failed or did not reproduce the
	// recorded state — the recording is unusable as evidence.
	StatusDiverged
	// StatusUnverifiable: the bundle's program is not in this server's
	// workload catalogue, so it was stored but could not be replayed.
	StatusUnverifiable
)

// String names the status.
func (s VerdictStatus) String() string {
	switch s {
	case StatusAccepted:
		return "accepted"
	case StatusTorn:
		return "torn"
	case StatusDiverged:
		return "diverged"
	case StatusUnverifiable:
		return "unverifiable"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Verdict is the verifier pool's published conclusion for one stored
// bundle. MemChecksum and Steps carry the replayed machine's fingerprint
// so an external verification of the same bundle can be compared
// bit-for-bit against the server's.
type Verdict struct {
	Tenant      string
	Digest      string
	Status      VerdictStatus
	Program     string // bundle's program name
	Threads     int
	Steps       uint64 // instructions retired by the verification replay
	MemChecksum uint64 // FNV-64a of replayed memory, 0 unless replayed
	Detail      string // human-readable cause for torn/diverged/unverifiable
}

// Counters is a point-in-time snapshot of the server's monotonic
// counters plus the current queue gauges.
type Counters struct {
	Sessions      uint64 // sessions accepted (HELLO seen)
	Accepted      uint64 // uploads acked (stored or deduplicated)
	Duplicates    uint64 // acked uploads that were already in the store
	Shed          uint64 // sessions shed with CodeOverloaded
	Aborted       uint64 // sessions dropped before FINISH (torn uploads)
	Rejected      uint64 // sessions rejected for protocol/size/digest faults
	BytesIngested uint64 // payload bytes accepted into shard queues
	VerdictsBy    map[VerdictStatus]uint64
	VerifyQueue   int // bundles waiting for a verifier
	ShardQueue    int // data messages waiting across all shards
}

// counters is the live atomic form behind Counters.
type counters struct {
	sessions      atomic.Uint64
	accepted      atomic.Uint64
	duplicates    atomic.Uint64
	shed          atomic.Uint64
	aborted       atomic.Uint64
	rejected      atomic.Uint64
	bytesIngested atomic.Uint64
}

// verdictBoard publishes verifier conclusions: the latest verdict per
// bundle and rolled-up per-tenant status counts.
type verdictBoard struct {
	mu        sync.Mutex
	byDigest  map[string]Verdict // keyed tenant+"/"+digest
	pending   map[string]bool    // claimed but not yet published
	byTenant  map[string]map[VerdictStatus]uint64
	byStatus  map[VerdictStatus]uint64
	published uint64
}

func newVerdictBoard() *verdictBoard {
	return &verdictBoard{
		byDigest: make(map[string]Verdict),
		pending:  make(map[string]bool),
		byTenant: make(map[string]map[VerdictStatus]uint64),
		byStatus: make(map[VerdictStatus]uint64),
	}
}

// claim registers intent to verify tenant's bundle. It returns false
// when a verdict is already published or a job already in flight, so a
// deduplicated re-upload of the same bundle by the same tenant does not
// replay it twice, while each *distinct* tenant storing the same bytes
// still gets its own verdict.
func (b *verdictBoard) claim(tenant, digest string) bool {
	key := tenant + "/" + digest
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.byDigest[key]; ok {
		return false
	}
	if b.pending[key] {
		return false
	}
	b.pending[key] = true
	return true
}

func (b *verdictBoard) publish(v Verdict) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := v.Tenant + "/" + v.Digest
	delete(b.pending, key)
	b.byDigest[key] = v
	t := b.byTenant[v.Tenant]
	if t == nil {
		t = make(map[VerdictStatus]uint64)
		b.byTenant[v.Tenant] = t
	}
	t[v.Status]++
	b.byStatus[v.Status]++
	b.published++
}

// lookup returns the verdict published for tenant's bundle, if any.
func (b *verdictBoard) lookup(tenant, digest string) (Verdict, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.byDigest[tenant+"/"+digest]
	return v, ok
}

// Verdict returns the published verdict for tenant's bundle, if any.
func (s *Server) Verdict(tenant, digest string) (Verdict, bool) {
	return s.verdicts.lookup(tenant, digest)
}

// Counters snapshots the server's counters and queue gauges.
func (s *Server) Counters() Counters {
	c := Counters{
		Sessions:      s.ctrs.sessions.Load(),
		Accepted:      s.ctrs.accepted.Load(),
		Duplicates:    s.ctrs.duplicates.Load(),
		Shed:          s.ctrs.shed.Load(),
		Aborted:       s.ctrs.aborted.Load(),
		Rejected:      s.ctrs.rejected.Load(),
		BytesIngested: s.ctrs.bytesIngested.Load(),
		VerdictsBy:    make(map[VerdictStatus]uint64),
		VerifyQueue:   s.verifier.depth(),
	}
	for _, sh := range s.shards {
		c.ShardQueue += len(sh.ch)
	}
	s.verdicts.mu.Lock()
	for st, n := range s.verdicts.byStatus {
		c.VerdictsBy[st] = n
	}
	s.verdicts.mu.Unlock()
	return c
}

// Statsz renders the server's counters and per-tenant verdict rollup as
// the /statsz page body: a counter listing followed by a tenant table,
// both in the shared report layout.
func (s *Server) Statsz() string {
	c := s.Counters()
	kv := report.KV{Title: "ingest counters"}
	kv.AddUint("sessions", c.Sessions)
	kv.AddUint("uploads accepted", c.Accepted)
	kv.AddUint("uploads deduplicated", c.Duplicates)
	kv.AddUint("sessions shed (overload)", c.Shed)
	kv.AddUint("uploads aborted (torn)", c.Aborted)
	kv.AddUint("sessions rejected", c.Rejected)
	kv.AddUint("bytes ingested", c.BytesIngested)
	kv.Add("shard queue depth", fmt.Sprintf("%d", c.ShardQueue))
	kv.Add("verify queue depth", fmt.Sprintf("%d", c.VerifyQueue))
	for _, st := range []VerdictStatus{StatusAccepted, StatusTorn, StatusDiverged, StatusUnverifiable} {
		kv.AddUint("verdict "+st.String(), c.VerdictsBy[st])
	}

	t := report.Table{
		Title:   "verdicts by tenant",
		Columns: []string{"tenant", "accepted", "torn", "diverged", "unverifiable"},
	}
	s.verdicts.mu.Lock()
	tenants := make([]string, 0, len(s.verdicts.byTenant))
	for name := range s.verdicts.byTenant {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		row := s.verdicts.byTenant[name]
		t.AddRow(name,
			report.U(row[StatusAccepted]), report.U(row[StatusTorn]),
			report.U(row[StatusDiverged]), report.U(row[StatusUnverifiable]))
	}
	s.verdicts.mu.Unlock()
	return kv.String() + "\n" + t.String()
}
