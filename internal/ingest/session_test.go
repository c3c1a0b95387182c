package ingest

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// rawOpen dials the server, sends one opening frame, and returns the
// first reply frame.
func rawOpen(t *testing.T, addr string, kind FrameKind, payload []byte) (FrameKind, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fa := wire.GetAppender()
	defer wire.PutAppender(fa)
	appendFrame(fa, kind, payload)
	if _, err := conn.Write(fa.Buf); err != nil {
		t.Fatal(err)
	}
	reply, p, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading reply to %s: %v", kind, err)
	}
	return reply, p
}

// TestHelloVersionNegotiation covers the version check on both session
// openers: HELLO and ATTACH carrying protoVersion are answered with a
// WELCOME carrying it, and every other version byte — older, newer or
// garbage — gets a non-retryable protocol error and counts as rejected.
func TestHelloVersionNegotiation(t *testing.T) {
	s := startServer(t, nil)
	openers := []struct {
		kind  FrameKind
		build func(a *wire.Appender, v byte)
	}{
		{FrameHello, func(a *wire.Appender, v byte) {
			appendHello(a, helloPayload{Version: v, Tenant: "sphere-n", SizeHint: 64})
		}},
		{FrameAttach, func(a *wire.Appender, v byte) {
			appendAttach(a, attachPayload{Version: v, Role: roleSubmitter})
		}},
	}
	for _, op := range openers {
		for _, v := range []byte{0, 1, 2, protoVersion, 4, 255} {
			t.Run(fmt.Sprintf("%s/v%d", op.kind, v), func(t *testing.T) {
				var p wire.Appender
				op.build(&p, v)
				before := s.Counters().Rejected
				kind, payload := rawOpen(t, s.Addr(), op.kind, p.Buf)
				rejected := s.Counters().Rejected - before
				if v == protoVersion {
					if kind != FrameWelcome {
						t.Fatalf("got %s frame, want welcome", kind)
					}
					w, err := decodeWelcome(payload)
					if err != nil || w.Version != protoVersion {
						t.Fatalf("welcome %+v, %v; want version %d", w, err, protoVersion)
					}
					if rejected != 0 {
						t.Errorf("accepted session counted %d rejections", rejected)
					}
					return
				}
				if kind != FrameError {
					t.Fatalf("got %s frame, want error", kind)
				}
				ep, err := decodeError(payload)
				if err != nil {
					t.Fatal(err)
				}
				if ep.Code != CodeProtocol || ep.Retryable {
					t.Errorf("rejected with %s retryable=%v, want non-retryable protocol error", ep.Code, ep.Retryable)
				}
				if rejected != 1 {
					t.Errorf("rejected counter moved by %d, want 1", rejected)
				}
			})
		}
	}
}

// TestClientNegotiatesAgainstV1Server pins the client half of the
// version check: a WELCOME carrying any version but protoVersion — an
// old fleet, a future one, or garbage — fails the session.
func TestClientNegotiatesAgainstV1Server(t *testing.T) {
	for _, v := range []byte{0, 1, 2, protoVersion, 4, 255} {
		srv, cli := net.Pipe()
		c := &Client{session: newSession(cli), chunk: uploadChunk}
		go func() {
			kind, payload, err := readFrame(srv)
			if err != nil || kind != FrameHello {
				srv.Close()
				return
			}
			h, err := decodeHello(payload)
			if err != nil || h.Version != protoVersion {
				srv.Close()
				return
			}
			var a, fa wire.Appender
			appendWelcome(&a, welcomePayload{Version: v, Credit: 1024})
			appendFrame(&fa, FrameWelcome, a.Buf)
			srv.Write(fa.Buf)
		}()
		err := c.hello("sphere-n", 64)
		cli.Close()
		srv.Close()
		if v == protoVersion && err != nil {
			t.Errorf("welcome v%d: hello failed: %v", v, err)
		}
		if v != protoVersion && err == nil {
			t.Errorf("welcome v%d: client accepted a foreign version", v)
		}
	}
}

// TestWriteFrameMarksUploadDead is the regression test for the shard
// lifecycle bug: a failed frame write marks the peer dead and severs
// its connection, whichever session type sends it, and the shard relies
// on that to stop assembling (and never ack) an upload whose socket is
// gone.
func TestWriteFrameMarksUploadDead(t *testing.T) {
	s := startServer(t, nil)
	for _, tc := range []struct {
		name  string
		kind  FrameKind // the frame this session type sends most
		inert func(t *testing.T, p *peer)
	}{
		{"upload", FrameGrant, func(t *testing.T, p *peer) {
			// A dead upload must stay inert through the shard's remaining
			// work: finishUpload on a dead session neither stores nor acks.
			up := &upload{peer: p, buf: wire.GetAppender()}
			defer wire.PutAppender(up.buf)
			before := s.ctrs.accepted.Load()
			s.finishUpload(up, [digestSize]byte{})
			if got := s.ctrs.accepted.Load(); got != before {
				t.Fatalf("dead upload was acked (accepted %d -> %d)", before, got)
			}
		}},
		{"fleet", FrameJob, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, cli := net.Pipe()
			cli.Close() // the peer vanished: every write must fail
			p := s.newPeer(srv)
			if p.write(tc.kind, []byte{1}) == nil {
				t.Fatal("write reported success on a closed connection")
			}
			if !p.dead.Load() {
				t.Fatal("failed write did not mark the peer dead")
			}
			if _, err := srv.Read(make([]byte, 1)); err == nil {
				t.Fatal("failed write left the connection open")
			}
			if tc.inert != nil {
				tc.inert(t, p)
			}
		})
	}
}
