package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/machine"
)

// localExpectation is the client-side ground truth for one stream: what
// a local salvage + parallel replay + verify of the exact upload bytes
// produces. The ingest server's published verdict must match it
// bit-for-bit.
type localExpectation struct {
	memChecksum uint64
	steps       uint64
	program     string
	threads     int
}

func expectLocally(t *testing.T, stream []byte) localExpectation {
	t.Helper()
	sv, err := core.SalvageStream(stream)
	if err != nil {
		t.Fatalf("local salvage: %v", err)
	}
	// The harness spells random programs "fuzz:<seed>"; recorded manifests
	// carry the program's own "fuzz-<seed>" name.
	name := sv.Bundle.ProgramName
	if rest, ok := strings.CutPrefix(name, "fuzz-"); ok {
		name = "fuzz:" + rest
	}
	prog, err := buildProgram(name, sv.Bundle.Threads)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.ReplayWorkers(prog, sv.Bundle, 4)
	if err != nil {
		t.Fatalf("local replay: %v", err)
	}
	if !sv.Bundle.Partial {
		if err := core.Verify(sv.Bundle, rr); err != nil {
			t.Fatalf("local verify: %v", err)
		}
	}
	return localExpectation{
		memChecksum: rr.MemChecksum,
		steps:       rr.Steps,
		program:     sv.Bundle.ProgramName,
		threads:     sv.Bundle.Threads,
	}
}

// recordCompressed records name with the recorder's segment writer
// compressing chunk and input segments — the one compression point on
// the upload path — under RecordWorkloadStream's configuration.
func recordCompressed(t *testing.T, name string, threads int, seed uint64) []byte {
	t.Helper()
	prog, err := buildProgram(name, threads)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 2
	cfg.Threads = threads
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1000
	cfg.FlushEveryChunks = 8
	cfg.CheckpointEveryInstrs = 2000
	cfg.CompressStream = true
	var buf bytes.Buffer
	if _, err := core.StreamRecord(prog, cfg, &buf); err != nil {
		t.Fatalf("compressed stream record %s: %v", name, err)
	}
	plain, err := ingest.RecordWorkloadStream(name, threads, seed)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(plain) {
		t.Fatalf("%s: compressed stream is %d bytes, plain %d — nothing was compressed", name, buf.Len(), len(plain))
	}
	return buf.Bytes()
}

// TestIngestLoopbackE2E is the recording-as-a-service conformance cell:
// record real workloads — one of them with a recorder-compressed stream
// — push them through a real quickrecd listener from at least 8
// concurrent uploaders (one of them torn mid-upload), and require that
// every stored bundle is byte-identical to its upload and that the
// server's salvage + prefix-replay verdict agrees bit-for-bit with local
// verification of the same bytes. The small
// credit forces the flow-control loop to actually cycle; the test is in
// CI's -race step, so the shard/verifier concurrency is exercised under
// the detector.
func TestIngestLoopbackE2E(t *testing.T) {
	workloads := []string{"counter", "reqserver", "fuzz-11"}
	var streams [][]byte
	var expect []localExpectation
	for i, name := range workloads {
		data, err := ingest.RecordWorkloadStream(name, 3, uint64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, data)
	}
	streams = append(streams, recordCompressed(t, "ioheavy", 3, 13))
	for _, data := range streams {
		expect = append(expect, expectLocally(t, data))
	}

	cfg := ingest.DefaultConfig()
	cfg.StoreDir = t.TempDir()
	cfg.Shards = 2
	cfg.Verifiers = 2
	cfg.Credit = 8 << 10 // several grant cycles per upload
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	// 8 complete uploaders across 4 tenants, plus one severed mid-upload.
	const uploaders = 8
	type acked struct {
		tenant string
		digest string
		stream int
	}
	var mu sync.Mutex
	var acks []acked
	var wg sync.WaitGroup
	errs := make(chan error, uploaders+1)
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := []string{"sphere-a", "sphere-b", "sphere-c", "sphere-d"}[i%4]
			si := i % len(streams)
			digest, _, _, err := ingest.Upload(srv.Addr(), tenant, streams[si], 5, 10*time.Millisecond)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			acks = append(acks, acked{tenant: tenant, digest: digest, stream: si})
			mu.Unlock()
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ingest.Dial(srv.Addr())
		if err != nil {
			errs <- err
			return
		}
		if err := c.UploadTorn("sphere-torn", streams[0], len(streams[0])/2); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(acks) != uploaders {
		t.Fatalf("%d acked uploads, want %d", len(acks), uploaders)
	}

	// The torn session must be counted as aborted and must not have
	// stored anything beyond the complete uploads' distinct bundles.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Counters().Aborted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("torn session never counted as aborted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stored, err := srv.Store().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(streams) {
		t.Fatalf("store holds %d bundles, want %d distinct", len(stored), len(streams))
	}

	// Every stored bundle is byte-identical to its upload, and the
	// server's verdict matches the local ground truth bit-for-bit.
	srv.WaitIdle()
	for _, a := range acks {
		data, err := srv.Store().Get(a.digest)
		if err != nil {
			t.Fatalf("stored bundle %s: %v", a.digest, err)
		}
		if !bytes.Equal(data, streams[a.stream]) {
			t.Fatalf("stored bundle %s differs from the uploaded stream", a.digest)
		}
		v, ok := srv.Verdict(a.tenant, a.digest)
		if !ok {
			t.Fatalf("no verdict for %s/%s", a.tenant, a.digest)
		}
		want := expect[a.stream]
		if v.Status != ingest.StatusAccepted {
			t.Fatalf("verdict for %s/%s: %s (%s), want accepted", a.tenant, a.digest, v.Status, v.Detail)
		}
		if v.MemChecksum != want.memChecksum || v.Steps != want.steps ||
			v.Program != want.program || v.Threads != want.threads {
			t.Fatalf("server verdict (%s, %d threads, sum %#x, %d steps) disagrees with local verification (%s, %d threads, sum %#x, %d steps)",
				v.Program, v.Threads, v.MemChecksum, v.Steps,
				want.program, want.threads, want.memChecksum, want.steps)
		}
	}

	ctrs := srv.Counters()
	if ctrs.Accepted != uploaders {
		t.Fatalf("server acked %d uploads, fleet saw %d", ctrs.Accepted, uploaders)
	}
	if n := ctrs.VerdictsBy[ingest.StatusDiverged] + ctrs.VerdictsBy[ingest.StatusTorn] +
		ctrs.VerdictsBy[ingest.StatusUnverifiable]; n != 0 {
		t.Fatalf("%d non-accepted verdicts: %+v", n, ctrs.VerdictsBy)
	}
}

// TestIngestShedSurfacesTypedError pins the backpressure contract at
// the harness level: a server whose shards cannot keep up must shed
// with the typed retryable error, never hang or drop silently.
func TestIngestShedSurfacesTypedError(t *testing.T) {
	data, err := ingest.RecordWorkloadStream("counter", 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ingest.DefaultConfig()
	cfg.StoreDir = t.TempDir()
	cfg.Shards = 1
	cfg.QueueDepth = 1
	cfg.ShedTimeout = time.Millisecond
	cfg.Credit = 1 << 20
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	// Hammer the single 1-deep shard from many uploaders with no retries:
	// under this configuration at least one session is statistically
	// certain to hit a full queue; every outcome must be either a clean
	// ack or the typed retryable rejection.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var okN, shedN int
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, err := ingest.Upload(srv.Addr(), "sphere", data, 1, 0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				okN++
			case ingest.IsRetryable(err):
				shedN++
			default:
				t.Errorf("uploader %d: %v (neither ack nor retryable shed)", i, err)
			}
		}(i)
	}
	wg.Wait()
	if okN == 0 {
		t.Fatal("no upload succeeded even once")
	}
	t.Logf("%d acked, %d shed with retryable errors", okN, shedN)
	if shedN > 0 && srv.Counters().Shed == 0 {
		t.Fatal("sessions shed but the shed counter stayed zero")
	}
}
