package ingest

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Config parameterizes a Server. The zero value is unusable; call
// DefaultConfig and override.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// loopback port).
	Addr string
	// StoreDir roots the content-addressed bundle store.
	StoreDir string
	// Shards is the number of shard workers; sessions map onto them by
	// tenant hash, so one tenant's uploads serialize on one appender while
	// distinct tenants proceed in parallel.
	Shards int
	// QueueDepth bounds each shard's message queue. A full queue is the
	// backpressure signal: session handlers block up to ShedTimeout for a
	// slot, then shed the session with a retryable error.
	QueueDepth int
	// ShedTimeout is how long a handler waits on a full shard queue
	// before shedding the session.
	ShedTimeout time.Duration
	// Credit is the per-session in-flight byte allowance granted at
	// WELCOME; the shard returns credit as it consumes DATA frames.
	Credit int
	// MaxUploadBytes caps one upload's assembled size, and one fleet job
	// result's.
	MaxUploadBytes int
	// Verifiers is the background verifier pool size.
	Verifiers int
	// WriteTimeout bounds every server-side frame write, so a reader that
	// stopped draining its socket cannot wedge a shard worker.
	WriteTimeout time.Duration
	// JobTimeout is how long a dispatched fleet job may stay in flight on
	// one worker before the broker re-dispatches it to another (straggler
	// or dead-worker recovery). 0 selects a 30s default.
	JobTimeout time.Duration
}

// DefaultConfig returns the production-shaped defaults on a loopback
// ephemeral port.
func DefaultConfig() Config {
	return Config{
		Addr:           "127.0.0.1:0",
		Shards:         4,
		QueueDepth:     64,
		ShedTimeout:    time.Second,
		Credit:         256 << 10,
		MaxUploadBytes: 64 << 20,
		Verifiers:      2,
		WriteTimeout:   10 * time.Second,
	}
}

// shardMsg is one unit of work on a shard queue.
type shardMsg struct {
	up   *upload
	kind FrameKind // FrameData, FrameFinish; 0 for abort
	data []byte    // DATA payload
	dig  [digestSize]byte
}

// shard is one ingest lane: a bounded queue drained by a single worker
// goroutine that owns the pooled appenders of every upload hashed onto
// it.
type shard struct {
	ch chan shardMsg
}

// peer is the server end of one framed connection: an upload, a fleet
// session or a fetch. Several goroutines may write to one peer (an
// upload's handler and shard worker, a worker's feeder and result
// router), so writes are serialized by wmu; dead is atomic for the same
// reason — write marks it from whichever goroutine hit the failure, and
// the others poll it.
type peer struct {
	conn    net.Conn
	timeout time.Duration
	wmu     sync.Mutex
	dead    atomic.Bool // set on write failure; uploads also on size overflow
}

func (s *Server) newPeer(conn net.Conn) *peer {
	return &peer{conn: conn, timeout: s.cfg.WriteTimeout}
}

// write sends one frame under the write lock and deadline. On failure
// it marks the peer dead and severs the connection, so a wedged reader
// cannot block a shard worker or the broker.
func (p *peer) write(kind FrameKind, payload []byte) error {
	a := wire.GetAppender()
	defer wire.PutAppender(a)
	appendFrame(a, kind, payload)
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	if _, err := p.conn.Write(a.Buf); err != nil {
		p.dead.Store(true)
		p.conn.Close()
		return fmt.Errorf("ingest: write %s: %w", kind, err)
	}
	return nil
}

// writeError sends a typed ERROR frame.
func (p *peer) writeError(code ErrorCode, retryable bool, msg string) {
	var a wire.Appender
	appendError(&a, errorPayload{Code: code, Retryable: retryable, Msg: msg})
	p.write(FrameError, a.Buf)
}

// upload is one in-flight session's assembly state. The buf is owned by
// the shard worker between register and finish/abort; the shard skips
// uploads whose peer is dead (write failure or size overflow).
type upload struct {
	*peer
	tenant string
	buf    *wire.Appender
	size   int
}

// Server is the recording-as-a-service ingest endpoint.
type Server struct {
	cfg      Config
	ln       net.Listener
	store    *Store
	shards   []*shard
	verifier *verifierPool
	verdicts *verdictBoard
	broker   *broker
	ctrs     counters

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	handlers sync.WaitGroup
	shardWG  sync.WaitGroup
}

// NewServer opens the store, starts the shard workers and verifier
// pool, and begins listening. Serve must be called to accept sessions.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Shards < 1 || cfg.QueueDepth < 1 || cfg.Credit < 1 || cfg.MaxUploadBytes < 1 {
		return nil, fmt.Errorf("ingest: config: shards, queue depth, credit and size cap must be positive")
	}
	store, err := OpenStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		store:    store,
		verdicts: newVerdictBoard(),
		conns:    make(map[net.Conn]struct{}),
	}
	s.verifier = newVerifierPool(cfg.Verifiers, s.verdicts)
	s.broker = newBroker(s, cfg.JobTimeout)
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{ch: make(chan shardMsg, cfg.QueueDepth)}
		s.shards = append(s.shards, sh)
		s.shardWG.Add(1)
		go s.runShard(sh)
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Store returns the server's bundle store.
func (s *Server) Store() *Store { return s.store }

// Serve accepts sessions until the listener closes. It always returns a
// non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.handlers.Add(1)
		go s.handle(conn)
	}
}

// WaitIdle blocks until every queued bundle has a published verdict.
// Sessions still uploading are not waited for — call it after the
// uploads whose verdicts are wanted have been acked.
func (s *Server) WaitIdle() { s.verifier.waitIdle() }

// Close stops accepting, tears down live sessions, drains the shards
// and verifier pool, and returns. Safe to call once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.handlers.Wait() // all producers gone; shards can be closed
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.shardWG.Wait()
	s.broker.close()
	s.verifier.close()
	return err
}

// shardFor maps a tenant onto its shard by FNV-1a hash.
func (s *Server) shardFor(tenant string) *shard {
	h := fnv.New32a()
	io.WriteString(h, tenant)
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// enqueue offers msg to sh, blocking up to the shed timeout.
func (s *Server) enqueue(sh *shard, msg shardMsg) bool {
	select {
	case sh.ch <- msg:
		return true
	default:
	}
	t := time.NewTimer(s.cfg.ShedTimeout)
	defer t.Stop()
	select {
	case sh.ch <- msg:
		return true
	case <-t.C:
		return false
	}
}

// enqueueMust delivers lifecycle messages (abort) that release shard-
// owned state; these block without a timeout because dropping them
// would leak the upload's pooled buffer.
func (s *Server) enqueueMust(sh *shard, msg shardMsg) {
	sh.ch <- msg
}

// checkVersion rejects a HELLO or ATTACH that does not speak
// protoVersion.
func checkVersion(v byte) error {
	if v != protoVersion {
		return fmt.Errorf("protocol version %d, server speaks %d", v, protoVersion)
	}
	return nil
}

// handle runs one session. The opening frame selects the session type:
// HELLO starts an upload, ATTACH joins the fleet job plane as a worker
// or submitter, FETCH streams a stored bundle back.
func (s *Server) handle(conn net.Conn) {
	defer s.handlers.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	kind, payload, err := readFrame(conn)
	if err != nil {
		s.ctrs.rejected.Add(1)
		return // no session was opened; no frame owed
	}
	p := s.newPeer(conn)
	switch kind {
	case FrameHello:
		s.handleUpload(p, payload)
	case FrameAttach:
		s.broker.handleAttach(p, payload)
	case FrameFetch:
		s.handleFetch(p, payload)
	default:
		s.ctrs.rejected.Add(1)
	}
}

// handleUpload runs an upload session from its HELLO on: WELCOME, then
// the DATA/FINISH loop. The handler owns the read side; the shard
// worker owns the upload buffer and sends GRANT/ACK frames.
func (s *Server) handleUpload(p *peer, payload []byte) {
	hello, err := decodeHello(payload)
	if err == nil {
		err = checkVersion(hello.Version)
	}
	if err != nil {
		s.ctrs.rejected.Add(1)
		p.writeError(CodeProtocol, false, "bad hello: "+err.Error())
		return
	}
	if hello.SizeHint > uint64(s.cfg.MaxUploadBytes) {
		s.ctrs.rejected.Add(1)
		p.writeError(CodeTooLarge, false,
			fmt.Sprintf("declared %d bytes, cap %d", hello.SizeHint, s.cfg.MaxUploadBytes))
		return
	}
	s.ctrs.sessions.Add(1)

	up := &upload{peer: p, tenant: hello.Tenant}
	sh := s.shardFor(hello.Tenant)

	// Register with the shard: the worker attaches the pooled appender.
	// Registration rides the same bounded queue as data, so an overloaded
	// shard sheds the session before it ever buffers a byte.
	if !s.enqueue(sh, shardMsg{up: up, kind: FrameHello}) {
		s.ctrs.shed.Add(1)
		p.writeError(CodeOverloaded, true, "shard queue full")
		return
	}
	finished := false
	defer func() {
		if !finished {
			s.ctrs.aborted.Add(1)
			s.enqueueMust(sh, shardMsg{up: up}) // abort: release the buffer
		}
	}()

	a := wire.GetAppender()
	appendWelcome(a, welcomePayload{Version: protoVersion, Credit: uint64(s.cfg.Credit)})
	err = p.write(FrameWelcome, a.Buf)
	wire.PutAppender(a)
	if err != nil {
		return
	}

	for {
		kind, payload, err := readFrame(p.conn)
		if err != nil {
			return // torn upload: the deferred abort reclaims state
		}
		switch kind {
		case FrameData:
			if !s.enqueue(sh, shardMsg{up: up, kind: FrameData, data: payload}) {
				s.ctrs.shed.Add(1)
				p.writeError(CodeOverloaded, true, "shard queue full")
				return
			}
			s.ctrs.bytesIngested.Add(uint64(len(payload)))
		case FrameFinish:
			fin, err := decodeFinish(payload)
			if err != nil {
				s.ctrs.rejected.Add(1)
				p.writeError(CodeProtocol, false, err.Error())
				return
			}
			finished = true
			s.enqueueMust(sh, shardMsg{up: up, kind: FrameFinish, dig: fin.Digest})
			// The shard sends ACK (or ERROR) and releases the buffer; the
			// session is done once the client closes its side.
			io.Copy(io.Discard, p.conn)
			return
		default:
			s.ctrs.rejected.Add(1)
			p.writeError(CodeProtocol, false, "unexpected "+kind.String()+" frame")
			return
		}
	}
}

// runShard drains one shard queue. The worker is the sole owner of
// every registered upload's assembly buffer, so appends need no locks;
// it returns credit after consuming each DATA frame, which is what
// closes the flow-control loop.
func (s *Server) runShard(sh *shard) {
	defer s.shardWG.Done()
	for msg := range sh.ch {
		up := msg.up
		switch msg.kind {
		case FrameHello:
			up.buf = wire.GetAppender()
		case FrameData:
			if up.dead.Load() {
				continue
			}
			if up.size+len(msg.data) > s.cfg.MaxUploadBytes {
				up.dead.Store(true)
				s.ctrs.rejected.Add(1)
				up.writeError(CodeTooLarge, false,
					fmt.Sprintf("upload exceeds %d bytes", s.cfg.MaxUploadBytes))
				continue
			}
			up.buf.Raw(msg.data)
			up.size += len(msg.data)
			ga := wire.GetAppender()
			appendGrant(ga, grantPayload{Bytes: uint64(len(msg.data))})
			// A failed grant marks the upload dead; the handler will see
			// the closed conn and abort.
			up.write(FrameGrant, ga.Buf)
			wire.PutAppender(ga)
		case FrameFinish:
			s.finishUpload(up, msg.dig)
			s.releaseUpload(up)
		default: // abort
			s.releaseUpload(up)
		}
	}
}

// releaseUpload returns the upload's pooled buffer.
func (s *Server) releaseUpload(up *upload) {
	if up.buf != nil {
		wire.PutAppender(up.buf)
		up.buf = nil
	}
}

// finishUpload verifies the upload digest, stores the bundle, queues
// verification, and acks.
func (s *Server) finishUpload(up *upload, want [digestSize]byte) {
	if up.dead.Load() {
		return
	}
	got := sha256.Sum256(up.buf.Buf)
	if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
		s.ctrs.rejected.Add(1)
		up.writeError(CodeDigestMismatch, false,
			fmt.Sprintf("upload hashed to %x, client declared %x", got, want))
		return
	}
	digest, existed, err := s.store.Put(up.buf.Buf)
	if err != nil {
		// Store faults (disk full, permissions) are retryable from the
		// client's point of view: nothing was made addressable.
		up.writeError(CodeOverloaded, true, err.Error())
		return
	}
	if existed {
		s.ctrs.duplicates.Add(1)
	}
	// Fleet bundles are job inputs, not recordings to audit: the fleet
	// is about to replay them on purpose, so burning a verifier on each
	// would double every distributed run's work.
	if up.tenant != FleetTenant && s.verdicts.claim(up.tenant, digest) {
		// Verification reads the bundle back from the store (not the pooled
		// buffer, which is about to be recycled): the verdict describes the
		// durable object.
		if data, err := s.store.Get(digest); err == nil {
			s.verifier.enqueue(verifyJob{tenant: up.tenant, digest: digest, data: data})
		} else {
			s.verdicts.publish(Verdict{
				Tenant: up.tenant, Digest: digest,
				Status: StatusUnverifiable, Detail: err.Error(),
			})
		}
	}
	a := wire.GetAppender()
	defer wire.PutAppender(a)
	appendAck(a, ackPayload{Digest: digest, Duplicate: existed})
	if up.write(FrameAck, a.Buf) == nil {
		s.ctrs.accepted.Add(1)
	}
}

// hexDigest is a tiny helper for tests and the CLI.
func hexDigest(sum [digestSize]byte) string { return hex.EncodeToString(sum[:]) }

// FleetTenant is the reserved tenant fleet submitters upload job
// bundles under. Fleet bundles skip the background verifier — workers
// replay them as part of the job itself.
const FleetTenant = "_fleet"

// handleFetch streams a stored bundle back to a worker: DATA frames in
// upload-sized chunks, then FINISH carrying the SHA-256 of the whole
// object so the worker can check what it reassembled.
func (s *Server) handleFetch(p *peer, payload []byte) {
	f, err := decodeFetch(payload)
	if err != nil {
		s.ctrs.rejected.Add(1)
		p.writeError(CodeProtocol, false, err.Error())
		return
	}
	data, err := s.store.Get(f.Digest)
	if err != nil {
		p.writeError(CodeNotFound, false, fmt.Sprintf("digest %s: %v", f.Digest, err))
		return
	}
	for off := 0; off < len(data); off += uploadChunk {
		end := off + uploadChunk
		if end > len(data) {
			end = len(data)
		}
		if p.write(FrameData, data[off:end]) != nil {
			return
		}
	}
	sum := sha256.Sum256(data)
	var a wire.Appender
	appendFinish(&a, finishPayload{Digest: sum})
	p.write(FrameFinish, a.Buf)
}
