package ingest

// Payload codecs for the fleet frames: the job plane
// (ATTACH/JOB/RESULT) and blob fetch (FETCH).
//
// Job and result payloads are opaque to this layer beyond their routing
// envelope — the broker moves bytes between submitters and workers and
// never inspects a job's meaning. The dispatch package owns the job
// body codec; here a frame only adds the broker's routing ID (and, for
// results, the chunking needed to stay under maxFramePayload).

import (
	"fmt"

	"repro/internal/wire"
)

// Fleet session roles carried by ATTACH.
const (
	roleWorker    = 1 // pulls jobs, pushes results
	roleSubmitter = 2 // pushes jobs, pulls results
)

// attachPayload opens a fleet session.
type attachPayload struct {
	Version byte
	Role    byte
	Slots   uint64 // worker concurrency; 0 for submitters
}

func appendAttach(a *wire.Appender, at attachPayload) {
	a.Byte(at.Version)
	a.Byte(at.Role)
	a.Uvarint(at.Slots)
}

func decodeAttach(data []byte) (attachPayload, error) {
	var at attachPayload
	c := wire.CursorOf(data)
	var err error
	if at.Version, err = c.Byte(); err != nil {
		return at, fmt.Errorf("%w: attach version: %v", ErrFrame, err)
	}
	if at.Role, err = c.Byte(); err != nil {
		return at, fmt.Errorf("%w: attach role: %v", ErrFrame, err)
	}
	if at.Role != roleWorker && at.Role != roleSubmitter {
		return at, fmt.Errorf("%w: attach role %d", ErrFrame, at.Role)
	}
	if at.Slots, err = c.Uvarint(); err != nil {
		return at, fmt.Errorf("%w: attach slots: %v", ErrFrame, err)
	}
	if at.Slots > 1<<10 {
		return at, fmt.Errorf("%w: attach slots %d out of range", ErrFrame, at.Slots)
	}
	if err := c.Done(); err != nil {
		return at, fmt.Errorf("%w: attach trailer: %v", ErrFrame, err)
	}
	return at, nil
}

// jobPayload is one job envelope: a routing ID plus the opaque job body
// (a dispatch job encoding — kind, bundle digest, parameters).
type jobPayload struct {
	ID   uint64
	Body []byte
}

func appendJobFrame(a *wire.Appender, j jobPayload) {
	a.Uvarint(j.ID)
	a.Blob(j.Body)
}

func decodeJobFrame(data []byte) (jobPayload, error) {
	var j jobPayload
	c := wire.CursorOf(data)
	var err error
	if j.ID, err = c.Uvarint(); err != nil {
		return j, fmt.Errorf("%w: job id: %v", ErrFrame, err)
	}
	body, err := c.Blob()
	if err != nil {
		return j, fmt.Errorf("%w: job body: %v", ErrFrame, err)
	}
	j.Body = body
	if err := c.Done(); err != nil {
		return j, fmt.Errorf("%w: job trailer: %v", ErrFrame, err)
	}
	return j, nil
}

// resultChunkSize bounds one RESULT frame's data chunk, leaving
// headroom under maxFramePayload for the envelope fields.
const resultChunkSize = 256 << 10

// resultPayload is one chunk of a job's result. A result is a sequence
// of RESULT frames sharing an ID; Last marks the final chunk, which
// alone carries the error string (empty = success).
type resultPayload struct {
	ID   uint64
	Last bool
	Err  string
	Data []byte
}

// sendResult splits one job's result into RESULT payloads of at most
// resultChunkSize data bytes and hands each to send in order; only the
// last chunk carries errMsg.
func sendResult(id uint64, data []byte, errMsg string, send func(payload []byte) error) error {
	a := wire.GetAppender()
	defer wire.PutAppender(a)
	for {
		n := len(data)
		if n > resultChunkSize {
			n = resultChunkSize
		}
		last := n == len(data)
		r := resultPayload{ID: id, Last: last, Data: data[:n]}
		if last {
			r.Err = errMsg
		}
		a.Reset()
		appendResult(a, r)
		if err := send(a.Buf); err != nil || last {
			return err
		}
		data = data[n:]
	}
}

func appendResult(a *wire.Appender, r resultPayload) {
	a.Uvarint(r.ID)
	a.Bool(r.Last)
	a.String(r.Err)
	a.Blob(r.Data)
}

func decodeResult(data []byte) (resultPayload, error) {
	var r resultPayload
	c := wire.CursorOf(data)
	var err error
	if r.ID, err = c.Uvarint(); err != nil {
		return r, fmt.Errorf("%w: result id: %v", ErrFrame, err)
	}
	last, err := c.Byte()
	if err != nil {
		return r, fmt.Errorf("%w: result last flag: %v", ErrFrame, err)
	}
	if last > 1 {
		return r, fmt.Errorf("%w: result last flag %#x", ErrFrame, last)
	}
	r.Last = last != 0
	msg, err := c.View()
	if err != nil {
		return r, fmt.Errorf("%w: result error: %v", ErrFrame, err)
	}
	r.Err = string(msg)
	chunk, err := c.Blob()
	if err != nil {
		return r, fmt.Errorf("%w: result data: %v", ErrFrame, err)
	}
	r.Data = chunk
	if err := c.Done(); err != nil {
		return r, fmt.Errorf("%w: result trailer: %v", ErrFrame, err)
	}
	return r, nil
}

// fetchPayload asks for a stored bundle by content digest.
type fetchPayload struct {
	Digest string // lowercase hex SHA-256, as carried by ACK frames
}

func appendFetch(a *wire.Appender, f fetchPayload) { a.String(f.Digest) }

func decodeFetch(data []byte) (fetchPayload, error) {
	var f fetchPayload
	c := wire.CursorOf(data)
	d, err := c.View()
	if err != nil {
		return f, fmt.Errorf("%w: fetch digest: %v", ErrFrame, err)
	}
	if len(d) != 2*digestSize {
		return f, fmt.Errorf("%w: fetch digest is %d chars, want %d", ErrFrame, len(d), 2*digestSize)
	}
	f.Digest = string(d)
	if err := c.Done(); err != nil {
		return f, fmt.Errorf("%w: fetch trailer: %v", ErrFrame, err)
	}
	return f, nil
}
