package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optima/internal/engine"
)

// serveWith serves hs on a loopback listener and returns its base URL.
func serveWith(t *testing.T, hs *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

// shortened is NewHTTPServer with every read bound cut to d, so the tests
// below can watch the bounds act in well under a second.
func shortened(h http.Handler, d time.Duration) *http.Server {
	hs := NewHTTPServer(h)
	hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout = d, d, d
	return hs
}

// TestHTTPServerBoundsReads pins the production settings: every read
// phase is bounded, and there is no write timeout.
func TestHTTPServerBoundsReads(t *testing.T) {
	hs := NewHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("unbounded read phase: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("write timeout %v set; the server bounds reads only", hs.WriteTimeout)
	}
}

// TestOversizedJobBodyRejected: a job body past MaxJobBodyBytes is
// answered 413 — here a valid request padded with whitespace, which an
// uncapped decoder would read to the end and accept — and the session
// stays free for a normal submission.
func TestOversizedJobBodyRejected(t *testing.T) {
	ts := httptest.NewServer(New(testExp(t)).Handler())
	defer ts.Close()
	sid := createSession(t, ts.URL)

	req := map[string]any{"kind": "sweep", "tau0": "0.16", "vdac0": "0.3", "vdacfs": "1.0"}
	small, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte(" "), MaxJobBodyBytes)
	big := append(append([]byte{'{'}, pad...), small[1:]...)
	resp, err := http.Post(ts.URL+"/api/sessions/"+sid+"/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte job body: %d %s, want 413", len(big), resp.StatusCode, body)
	}

	jid := submitJob(t, ts.URL, sid, req)
	if last := watchToTerminal(t, ts.URL, sid, jid); last[len(last)-1].Type != EventDone {
		t.Fatalf("job after the rejected body ended %q", last[len(last)-1].Type)
	}
}

// TestSlowHeadersDisconnected: a client that starts a request and never
// finishes its headers is disconnected once the header read bound elapses
// instead of holding the connection open.
func TestSlowHeadersDisconnected(t *testing.T) {
	base := serveWith(t, shortened(http.NotFoundHandler(), 200*time.Millisecond))
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /api/status HTTP/1.1\r\nHost: optima\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	// Our own deadline is far past the server's: hitting it means the
	// server kept the half-sent request open.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection with unfinished headers still open after %v", time.Since(start))
	}
}

// TestStreamOutlivesReadTimeout: a WebSocket job stream is one request
// whose connection lives as long as the job, so the request read deadline
// must not reach the hijacked connection (net/http clears it on hijack;
// this pins that the timeouts above never cut a stream).
func TestStreamOutlivesReadTimeout(t *testing.T) {
	gate := newGateBackend()
	gateEng := engine.New(gate, 1)
	srv := New(testExp(t))
	srv.engineFor = func(string) (*engine.Engine, error) { return gateEng, nil }
	const read = 200 * time.Millisecond
	base := serveWith(t, shortened(srv.Handler(), read))

	sid := createSession(t, base)
	jid := submitJob(t, base, sid, map[string]any{"kind": "sweep", "tau0": "0.16", "vdac0": "0.3", "vdacfs": "1.0"})
	<-gate.started
	ws, err := DialWS(base + "/api/sessions/" + sid + "/jobs/" + jid + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	time.Sleep(3 * read)
	close(gate.release)
	for {
		msg, err := ws.ReadMessage()
		if err != nil {
			t.Fatalf("stream cut after the read timeout: %v", err)
		}
		var ev Event
		if err := json.Unmarshal(msg, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Terminal() {
			if ev.Type != EventDone {
				t.Fatalf("job ended %q (%s)", ev.Type, ev.Error)
			}
			return
		}
	}
}
