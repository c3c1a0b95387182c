package ingest

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// ServerError is a typed server-side rejection surfaced to an uploader.
type ServerError struct {
	Code      ErrorCode
	Retryable bool
	Msg       string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("ingest: server rejected upload (%s): %s", e.Code, e.Msg)
}

// IsRetryable reports whether err is a shed/transient server rejection
// worth retrying (an overloaded shard, a draining server).
func IsRetryable(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Retryable
}

// session is the client end of one framed connection. Every client
// session — upload, fleet submitter or worker, fetch — dials, sends its
// opening frame, and then exchanges frames through send and recv.
// Writes are serialized by wmu, so concurrent senders (a worker's jobs)
// never interleave bytes within a frame.
type session struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
}

// dialSession connects to an ingest server.
func dialSession(addr string) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ingest: dial: %w", err)
	}
	return newSession(conn), nil
}

func newSession(conn net.Conn) *session {
	return &session{conn: conn, br: bufio.NewReader(conn)}
}

// Close severs the connection.
func (s *session) Close() error { return s.conn.Close() }

// send frames payload under kind and writes it.
func (s *session) send(kind FrameKind, payload []byte) error {
	a := wire.GetAppender()
	defer wire.PutAppender(a)
	appendFrame(a, kind, payload)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, err := s.conn.Write(a.Buf); err != nil {
		return fmt.Errorf("ingest: send %s: %w", kind, err)
	}
	return nil
}

// recv reads the next server frame, decoding ERROR frames into
// *ServerError.
func (s *session) recv() (FrameKind, []byte, error) {
	kind, payload, err := readFrame(s.br)
	if err != nil {
		return 0, nil, fmt.Errorf("ingest: recv: %w", err)
	}
	if kind == FrameError {
		ep, err := decodeError(payload)
		if err != nil {
			return 0, nil, err
		}
		return 0, nil, &ServerError{Code: ep.Code, Retryable: ep.Retryable, Msg: ep.Msg}
	}
	return kind, payload, nil
}

// open sends the session's opening frame (HELLO or ATTACH) and waits
// for a WELCOME carrying protoVersion.
func (s *session) open(kind FrameKind, payload []byte) (welcomePayload, error) {
	if err := s.send(kind, payload); err != nil {
		return welcomePayload{}, err
	}
	reply, payload, err := s.recv()
	if err != nil {
		return welcomePayload{}, err
	}
	if reply != FrameWelcome {
		return welcomePayload{}, fmt.Errorf("%w: %s instead of welcome", ErrFrame, reply)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return w, err
	}
	if w.Version != protoVersion {
		return w, fmt.Errorf("%w: server speaks version %d, client speaks %d", ErrFrame, w.Version, protoVersion)
	}
	return w, nil
}

// Client is one recorder's connection to the ingest fleet. A client
// carries one upload session; it is not safe for concurrent use.
type Client struct {
	*session
	credit int
	chunk  int
}

// uploadChunk is the default DATA frame payload size.
const uploadChunk = 64 << 10

// Dial connects to an ingest server.
func Dial(addr string) (*Client, error) {
	s, err := dialSession(addr)
	if err != nil {
		return nil, err
	}
	return &Client{session: s, chunk: uploadChunk}, nil
}

// hello opens the upload session and takes the initial credit.
func (c *Client) hello(tenant string, sizeHint uint64) error {
	a := wire.GetAppender()
	appendHello(a, helloPayload{Version: protoVersion, Tenant: tenant, SizeHint: sizeHint})
	w, err := c.open(FrameHello, a.Buf)
	wire.PutAppender(a)
	if err != nil {
		return err
	}
	if w.Credit == 0 {
		return fmt.Errorf("%w: zero initial credit", ErrFrame)
	}
	c.credit = int(w.Credit)
	if c.chunk > c.credit {
		c.chunk = c.credit
	}
	return nil
}

// sendData streams stream in credit-bounded DATA frames, absorbing
// GRANT frames as they come back. It never puts more than the granted
// allowance in flight — that is the client half of the backpressure
// loop: when a shard lags, grants lag, and the uploader stalls here
// instead of ballooning the server's queues.
func (c *Client) sendData(stream []byte) error {
	for off := 0; off < len(stream); {
		for c.credit <= 0 {
			kind, payload, err := c.recv()
			if err != nil {
				return err
			}
			if kind != FrameGrant {
				return fmt.Errorf("%w: %s while waiting for credit", ErrFrame, kind)
			}
			g, err := decodeGrant(payload)
			if err != nil {
				return err
			}
			c.credit += int(g.Bytes)
		}
		n := c.chunk
		if n > c.credit {
			n = c.credit
		}
		if n > len(stream)-off {
			n = len(stream) - off
		}
		if err := c.send(FrameData, stream[off:off+n]); err != nil {
			return err
		}
		c.credit -= n
		off += n
	}
	return nil
}

// Upload sends one recorded stream under tenant and returns the
// store digest the server acked. The digest is computed client-side and
// checked by the server, so a corrupted upload is rejected, never
// stored.
func (c *Client) Upload(tenant string, stream []byte) (digest string, duplicate bool, err error) {
	if err := c.hello(tenant, uint64(len(stream))); err != nil {
		return "", false, err
	}
	if err := c.sendData(stream); err != nil {
		return "", false, err
	}
	sum := sha256.Sum256(stream)
	a := wire.GetAppender()
	appendFinish(a, finishPayload{Digest: sum})
	err = c.send(FrameFinish, a.Buf)
	wire.PutAppender(a)
	if err != nil {
		return "", false, err
	}
	// Late grants for the final DATA frames may precede the ACK.
	for {
		kind, payload, err := c.recv()
		if err != nil {
			return "", false, err
		}
		switch kind {
		case FrameGrant:
			continue
		case FrameAck:
			ack, err := decodeAck(payload)
			if err != nil {
				return "", false, err
			}
			if want := hexDigest(sum); ack.Digest != want {
				return "", false, fmt.Errorf("%w: server acked digest %s, sent %s", ErrFrame, ack.Digest, want)
			}
			return ack.Digest, ack.Duplicate, nil
		default:
			return "", false, fmt.Errorf("%w: %s instead of ack", ErrFrame, kind)
		}
	}
}

// UploadTorn opens a session, streams only stream[:cut], then severs
// the connection without FINISH — a recorder dying mid-upload. Used by
// the conformance tests and load generator to exercise the abort path.
func (c *Client) UploadTorn(tenant string, stream []byte, cut int) error {
	if cut > len(stream) {
		cut = len(stream)
	}
	if err := c.hello(tenant, uint64(len(stream))); err != nil {
		return err
	}
	if err := c.sendData(stream[:cut]); err != nil {
		return err
	}
	return c.Close()
}

// backoffCapFactor bounds the exponential retry backoff at
// base << backoffCapFactor — with the default base that keeps the
// worst-case sleep in seconds, not minutes, while still spreading a
// thundering herd across an order of magnitude.
const backoffCapFactor = 6

// retryDelay computes the sleep before retry attempt (1-based): capped
// exponential backoff with deterministic, seed-jittered spread. The
// uncapped exponent doubles from base; the jitter draws the actual
// delay uniformly from [exp/2, exp), seeded by (tenant, attempt) — the
// same uploader retries on the same schedule every run (reproducible
// tests), while distinct tenants shed from one overload burst retry at
// different times instead of re-stampeding in lockstep.
func retryDelay(tenant string, attempt int, base time.Duration) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	shift := attempt - 1
	if shift > backoffCapFactor {
		shift = backoffCapFactor
	}
	exp := base << shift
	h := fnv.New64a()
	io.WriteString(h, tenant)
	fmt.Fprintf(h, "/%d", attempt)
	frac := float64(h.Sum64()>>11) / float64(1<<53) // uniform [0, 1)
	return exp/2 + time.Duration(frac*float64(exp/2))
}

// Upload dials addr and uploads stream under tenant, retrying dial
// failures and shed (retryable) rejections up to attempts tries. The
// sleep between tries is capped exponential from backoff with
// deterministic per-tenant jitter — see retryDelay.
func Upload(addr, tenant string, stream []byte, attempts int, backoff time.Duration) (digest string, duplicate bool, retries int, err error) {
	if attempts < 1 {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			retries++
			time.Sleep(retryDelay(tenant, i, backoff))
		}
		var c *Client
		c, err = Dial(addr)
		if err != nil {
			continue // dial races with server start/stop; retry
		}
		digest, duplicate, err = c.Upload(tenant, stream)
		c.Close()
		if err == nil || !IsRetryable(err) {
			return digest, duplicate, retries, err
		}
	}
	return "", false, retries, err
}
