package ingest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/segment"
	"repro/internal/wire"
	"repro/internal/workload"
)

// recordStream records the named catalogue workload and returns its
// segmented stream image plus the recorded bundle.
func recordStream(t testing.TB, name string, threads int, seed uint64) (*core.Bundle, []byte) {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	prog := spec.Build(threads)
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 2
	cfg.Threads = threads
	cfg.Seed = seed
	cfg.KernelSeed = seed + 1000
	cfg.FlushEveryChunks = 8
	cfg.CheckpointEveryInstrs = 2000
	var buf bytes.Buffer
	b, err := core.StreamRecord(prog, cfg, &buf)
	if err != nil {
		t.Fatalf("stream record %s: %v", name, err)
	}
	return b, buf.Bytes()
}

// startServer runs an ingest server on an ephemeral loopback port with
// a temp-dir store, tearing it down with the test.
func startServer(t testing.TB, mut func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.StoreDir = t.TempDir()
	cfg.Shards = 2
	cfg.Verifiers = 1
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStorePutGetDedupe(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("quickrec stream bytes")
	d1, existed, err := st.Put(data)
	if err != nil || existed {
		t.Fatalf("first put: %s existed=%v err=%v", d1, existed, err)
	}
	sum := sha256.Sum256(data)
	if want := hexDigest(sum); d1 != want {
		t.Fatalf("digest %s, want %s", d1, want)
	}
	d2, existed, err := st.Put(data)
	if err != nil || !existed || d2 != d1 {
		t.Fatalf("second put: %s existed=%v err=%v", d2, existed, err)
	}
	got, err := st.Get(d1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %q %v", got, err)
	}
	list, err := st.List()
	if err != nil || len(list) != 1 || list[0] != d1 {
		t.Fatalf("list: %v %v", list, err)
	}
	if _, err := st.Get("nope"); err == nil {
		t.Fatal("get of malformed digest succeeded")
	}
}

func TestUploadStoreVerify(t *testing.T) {
	bundle, stream := recordStream(t, "counter", 2, 1)
	s := startServer(t, nil)

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	digest, dup, err := c.Upload("sphere-a", stream)
	if err != nil || dup {
		t.Fatalf("upload: %s dup=%v err=%v", digest, dup, err)
	}
	stored, err := s.Store().Get(digest)
	if err != nil || !bytes.Equal(stored, stream) {
		t.Fatalf("stored bundle differs from upload: %v", err)
	}

	s.WaitIdle()
	v, ok := s.Verdict("sphere-a", digest)
	if !ok {
		t.Fatal("no verdict published")
	}
	if v.Status != StatusAccepted {
		t.Fatalf("verdict %s (%s), want accepted", v.Status, v.Detail)
	}
	// The server's verification replay must agree bit-for-bit with a
	// local replay of the same recording.
	spec, _ := workload.ByName("counter")
	rr, err := core.Replay(spec.Build(2), bundle)
	if err != nil {
		t.Fatal(err)
	}
	if v.MemChecksum != rr.MemChecksum || v.Steps != rr.Steps {
		t.Fatalf("server replayed (sum %#x, %d steps), local (sum %#x, %d steps)",
			v.MemChecksum, v.Steps, rr.MemChecksum, rr.Steps)
	}

	ctrs := s.Counters()
	if ctrs.Accepted != 1 || ctrs.Duplicates != 0 || ctrs.VerdictsBy[StatusAccepted] != 1 {
		t.Fatalf("counters: %+v", ctrs)
	}
}

func TestDuplicateUploadDeduplicates(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 2)
	s := startServer(t, nil)
	d1, dup1, _, err := Upload(s.Addr(), "sphere-a", stream, 1, 0)
	if err != nil || dup1 {
		t.Fatalf("first upload: %v dup=%v", err, dup1)
	}
	d2, dup2, _, err := Upload(s.Addr(), "sphere-a", stream, 1, 0)
	if err != nil || !dup2 || d2 != d1 {
		t.Fatalf("second upload: %s dup=%v err=%v", d2, dup2, err)
	}
	list, err := s.Store().List()
	if err != nil || len(list) != 1 {
		t.Fatalf("store holds %v, want exactly one bundle", list)
	}
	s.WaitIdle()
	if n := s.Counters().VerdictsBy[StatusAccepted]; n != 1 {
		t.Fatalf("%d accepted verdicts for one deduplicated bundle", n)
	}
}

func TestTornRecordingUploadsAsTornVerdict(t *testing.T) {
	// A complete upload of a torn *recording*: the recorder died mid-run
	// and its salvage tool shipped the surviving prefix.
	_, stream := recordStream(t, "counter", 2, 3)
	offs := segment.Offsets(stream)
	if len(offs) < 4 {
		t.Fatalf("stream too short: %d segments", len(offs))
	}
	cut := stream[:offs[len(offs)/2]]
	s := startServer(t, nil)
	digest, _, _, err := Upload(s.Addr(), "sphere-t", cut, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	v, ok := s.Verdict("sphere-t", digest)
	if !ok || v.Status != StatusTorn {
		t.Fatalf("verdict %+v, want torn", v)
	}
	if v.Steps == 0 {
		t.Fatal("torn verdict carries no prefix-replay evidence")
	}
}

func TestTornUploadAbortsWithoutStoring(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 4)
	s := startServer(t, nil)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UploadTorn("sphere-x", stream, len(stream)/2); err != nil {
		t.Fatalf("torn upload: %v", err)
	}
	// The abort is processed asynchronously; poll the counter.
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Aborted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("aborted upload never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	list, err := s.Store().List()
	if err != nil || len(list) != 0 {
		t.Fatalf("torn upload left %v in the store", list)
	}
}

func TestUnknownProgramVerdictUnverifiable(t *testing.T) {
	spec, _ := workload.ByName("counter")
	prog := spec.Build(2)
	prog.Name = "prog-not-in-catalogue"
	cfg := machine.DefaultConfig()
	cfg.Mode = machine.ModeFull
	cfg.Cores = 2
	cfg.Threads = 2
	var buf bytes.Buffer
	if _, err := core.StreamRecord(prog, cfg, &buf); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, nil)
	digest, _, _, err := Upload(s.Addr(), "sphere-u", buf.Bytes(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.WaitIdle()
	if v, _ := s.Verdict("sphere-u", digest); v.Status != StatusUnverifiable {
		t.Fatalf("verdict %+v, want unverifiable", v)
	}
}

func TestDigestMismatchRejected(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 5)
	s := startServer(t, nil)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.hello("sphere-d", uint64(len(stream))); err != nil {
		t.Fatal(err)
	}
	if err := c.sendData(stream); err != nil {
		t.Fatal(err)
	}
	var fin finishPayload // declare an all-zero digest: a corrupted upload
	var a wire.Appender
	appendFinish(&a, fin)
	if err := c.send(FrameFinish, a.Buf); err != nil {
		t.Fatal(err)
	}
	var se *ServerError
	for {
		_, _, err := c.recv()
		if err == nil {
			continue // drain late grants
		}
		if !errors.As(err, &se) {
			t.Fatalf("error %v, want ServerError", err)
		}
		break
	}
	if se.Code != CodeDigestMismatch || se.Retryable {
		t.Fatalf("rejection %+v, want non-retryable digest mismatch", se)
	}
	if list, _ := s.Store().List(); len(list) != 0 {
		t.Fatalf("mismatched upload stored: %v", list)
	}
}

func TestOversizeUploadRejected(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 6)
	s := startServer(t, func(c *Config) { c.MaxUploadBytes = 16 })
	_, _, _, err := Upload(s.Addr(), "sphere-o", stream, 1, 0)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeTooLarge || se.Retryable {
		t.Fatalf("oversize upload: %v, want non-retryable too-large", err)
	}
}

// shedThenAccept is a front end that sheds its first sheds sessions
// with a retryable overload error (exactly what an overloaded shard
// sends) and proxies later sessions to the real server — a
// deterministic way to exercise the client's shed-retry loop.
func shedThenAccept(t *testing.T, sheds int, s *Server) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if i < sheds {
				// Read the HELLO, then shed like an overloaded shard.
				readFrame(conn)
				a := wire.GetAppender()
				var p wire.Appender
				appendError(&p, errorPayload{Code: CodeOverloaded, Retryable: true, Msg: "shard queue full"})
				appendFrame(a, FrameError, p.Buf)
				conn.Write(a.Buf)
				wire.PutAppender(a)
				conn.Close()
				continue
			}
			// Proxy the session to the real server.
			up, err := net.Dial("tcp", s.Addr())
			if err != nil {
				conn.Close()
				return
			}
			go func() { defer up.Close(); defer conn.Close(); copyConn(up, conn) }()
			go func() { copyConn(conn, up) }()
		}
	}()
	return ln.Addr().String()
}

func copyConn(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func TestUploadRetriesShedSessions(t *testing.T) {
	_, stream := recordStream(t, "counter", 2, 7)
	s := startServer(t, nil)
	addr := shedThenAccept(t, 2, s)
	digest, _, retries, err := Upload(addr, "sphere-r", stream, 4, time.Millisecond)
	if err != nil {
		t.Fatalf("upload through shedding front end: %v", err)
	}
	if retries != 2 {
		t.Fatalf("%d retries, want 2", retries)
	}
	if _, err := s.Store().Get(digest); err != nil {
		t.Fatalf("retried upload not stored: %v", err)
	}
	// Exhausting attempts surfaces the typed retryable error.
	addr2 := shedThenAccept(t, 1000, s)
	_, _, _, err = Upload(addr2, "sphere-r", stream, 2, time.Millisecond)
	if !IsRetryable(err) {
		t.Fatalf("exhausted retries: %v, want retryable ServerError", err)
	}
}

// TestRetryDelayBoundedAndDeterministic pins the upload backoff policy:
// the delay grows exponentially but is capped at base<<backoffCapFactor,
// jitter keeps every delay inside [exp/2, exp), the schedule is a pure
// function of (tenant, attempt), and distinct tenants land on distinct
// points of the window so a shed burst does not re-converge.
func TestRetryDelayBoundedAndDeterministic(t *testing.T) {
	const base = 10 * time.Millisecond
	for attempt := 1; attempt <= 20; attempt++ {
		shift := attempt - 1
		if shift > backoffCapFactor {
			shift = backoffCapFactor
		}
		exp := base << shift
		d := retryDelay("sphere-a", attempt, base)
		if d < exp/2 || d >= exp {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d, exp/2, exp)
		}
		if d2 := retryDelay("sphere-a", attempt, base); d2 != d {
			t.Errorf("attempt %d: delay not deterministic (%v then %v)", attempt, d, d2)
		}
		if ceil := base << backoffCapFactor; d >= ceil {
			t.Errorf("attempt %d: delay %v at or above the cap %v", attempt, d, ceil)
		}
	}

	// Thirty-two tenants retrying the same attempt must not synchronize:
	// the jitter seed includes the tenant, so the delays spread out.
	distinct := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		distinct[retryDelay(string(rune('a'+i)), 4, base)] = true
	}
	if len(distinct) < 16 {
		t.Errorf("32 tenants share only %d distinct delays — retries would synchronize", len(distinct))
	}
}

func TestShardEnqueueShedsWhenFull(t *testing.T) {
	// White-box: a shard with no worker, so the queue state is exact.
	s := &Server{cfg: Config{ShedTimeout: 5 * time.Millisecond}}
	sh := &shard{ch: make(chan shardMsg, 1)}
	if !s.enqueue(sh, shardMsg{}) {
		t.Fatal("enqueue into an empty queue shed")
	}
	start := time.Now()
	if s.enqueue(sh, shardMsg{}) {
		t.Fatal("enqueue into a full queue succeeded")
	}
	if waited := time.Since(start); waited < 5*time.Millisecond {
		t.Fatalf("shed after %v, before the shed timeout elapsed", waited)
	}
	// A slot opening during the wait rescues the message instead.
	slow := &Server{cfg: Config{ShedTimeout: 5 * time.Second}}
	go func() {
		time.Sleep(10 * time.Millisecond)
		<-sh.ch
	}()
	if !slow.enqueue(sh, shardMsg{}) {
		t.Fatal("enqueue shed although a slot opened within the timeout")
	}
}
