package ingest

// Client-side fleet transport: typed connections for the two ATTACH
// roles plus the FETCH opener. These are deliberately thin — framing,
// the opening handshake, chunk reassembly — so the executor and worker
// logic can live outside this package (internal/fleet) without
// re-implementing the wire protocol.

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/wire"
)

// attach opens a fleet session in the given role.
func attach(addr string, role byte, slots int) (*session, error) {
	s, err := dialSession(addr)
	if err != nil {
		return nil, err
	}
	var p wire.Appender
	appendAttach(&p, attachPayload{Version: protoVersion, Role: role, Slots: uint64(slots)})
	if _, err := s.open(FrameAttach, p.Buf); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Submitter is a submitter-role fleet session: it pushes job bodies
// under caller-chosen IDs and pulls completed results.
type Submitter struct {
	*session
	partial map[uint64][]byte
}

// DialSubmitter attaches to a fleet server as a submitter. Closing it
// severs the session; the server drops any unfinished jobs.
func DialSubmitter(addr string) (*Submitter, error) {
	s, err := attach(addr, roleSubmitter, 0)
	if err != nil {
		return nil, err
	}
	return &Submitter{session: s, partial: make(map[uint64][]byte)}, nil
}

// Submit puts one job on the server's board under id. IDs are the
// caller's namespace; reusing one before its result arrives is a
// caller bug.
func (s *Submitter) Submit(id uint64, body []byte) error {
	var p wire.Appender
	appendJobFrame(&p, jobPayload{ID: id, Body: body})
	return s.send(FrameJob, p.Buf)
}

// Next blocks for the next completed job: its ID, result payload, and
// the worker-side error message (empty on success). Results arrive in
// completion order, not submission order.
func (s *Submitter) Next() (id uint64, data []byte, errMsg string, err error) {
	for {
		kind, payload, err := s.recv()
		if err != nil {
			return 0, nil, "", err
		}
		if kind != FrameResult {
			return 0, nil, "", fmt.Errorf("%w: %s instead of result", ErrFrame, kind)
		}
		r, err := decodeResult(payload)
		if err != nil {
			return 0, nil, "", err
		}
		s.partial[r.ID] = append(s.partial[r.ID], r.Data...)
		if r.Last {
			data := s.partial[r.ID]
			delete(s.partial, r.ID)
			return r.ID, data, r.Err, nil
		}
	}
}

// WorkerConn is a worker-role fleet session: it pulls job envelopes and
// pushes results. Reads and writes may come from different goroutines
// (jobs execute concurrently).
type WorkerConn struct {
	*session
}

// DialWorker attaches to a fleet server as a worker advertising the
// given slot count. Closing it severs the session; the server re-queues
// anything in flight.
func DialWorker(addr string, slots int) (*WorkerConn, error) {
	s, err := attach(addr, roleWorker, slots)
	if err != nil {
		return nil, err
	}
	return &WorkerConn{session: s}, nil
}

// NextJob blocks for the next job envelope.
func (w *WorkerConn) NextJob() (id uint64, body []byte, err error) {
	kind, payload, err := w.recv()
	if err != nil {
		return 0, nil, err
	}
	if kind != FrameJob {
		return 0, nil, fmt.Errorf("%w: %s instead of job", ErrFrame, kind)
	}
	j, err := decodeJobFrame(payload)
	if err != nil {
		return 0, nil, err
	}
	return j.ID, j.Body, nil
}

// SendResult streams one job's result back, chunked under the
// maxFramePayload cap. Safe for concurrent use.
func (w *WorkerConn) SendResult(id uint64, data []byte, errMsg string) error {
	return sendResult(id, data, errMsg, func(p []byte) error { return w.send(FrameResult, p) })
}

// FetchBundle retrieves a stored bundle by digest over a fetch session:
// the server streams DATA frames and closes with FINISH carrying the
// object's SHA-256, which is checked against both the reassembled bytes
// and the requested digest.
func FetchBundle(addr, digest string) ([]byte, error) {
	s, err := dialSession(addr)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var p wire.Appender
	appendFetch(&p, fetchPayload{Digest: digest})
	if err := s.send(FrameFetch, p.Buf); err != nil {
		return nil, err
	}
	var data []byte
	for {
		kind, payload, err := s.recv()
		if err != nil {
			return nil, err
		}
		switch kind {
		case FrameData:
			data = append(data, payload...)
		case FrameFinish:
			fin, err := decodeFinish(payload)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(data)
			if hexDigest(sum) != digest || sum != fin.Digest {
				return nil, fmt.Errorf("%w: fetched object hashes to %x, asked for %s", ErrFrame, sum, digest)
			}
			return data, nil
		default:
			return nil, fmt.Errorf("%w: %s during fetch", ErrFrame, kind)
		}
	}
}
