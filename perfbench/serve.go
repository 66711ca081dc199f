package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"optima/internal/exp"
	"optima/internal/obs"
	"optima/internal/search"
	"optima/internal/server"
)

// serve runs an in-process optima-server on loopback. One op is one user's
// visit: open a session, submit the search workload's job, follow its
// WebSocket to the end, fetch the result and delete the session, so the
// server's state does not grow with the run's length.
type serve struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	body   []byte
	ref    []byte // the in-process report, engine accounting zeroed
	rmsMV  float64
}

// serveTimeout bounds one HTTP exchange or WebSocket read of an op.
const serveTimeout = 60 * time.Second

// setupServe calibrates the model, starts the server over a session
// context with a fresh cache directory, computes the in-process reference
// report, and runs one job through the server to warm its shared engine.
// In a traced run the server adopts the run's recorder.
func setupServe(seed uint64, dir string, rec *obs.Recorder) (workload, error) {
	in, err := newSearchInputs(seed)
	if err != nil {
		return nil, err
	}
	cold, err := in.reference()
	if err != nil {
		return nil, err
	}
	ref, err := withoutAccounting(cold)
	if err != nil {
		return nil, err
	}
	cacheDir, err := os.MkdirTemp(dir, "serve-")
	if err != nil {
		return nil, err
	}
	ctx := exp.NewContextWithModel(in.model, in.calib.Tech)
	ctx.Spice = in.calib.Spice
	ctx.Workers = workers
	ctx.CacheDir = cacheDir
	ctx.Conditions = in.conds
	ctx.Recorder = rec
	body, err := json.Marshal(server.JobRequest{
		Kind: server.KindSearch, Budget: searchBudget, Seed: seed,
		Tau0: searchTau0, VDAC0: searchVDAC0, VDACFS: searchVDACFS,
	})
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serve{
		srv:    server.New(ctx),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		base:   "http://" + ln.Addr().String(),
		body:   body,
		ref:    ref,
		rmsMV:  in.model.Report.VDDRMSVolts * 1e3,
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	// The warm-up job runs alone on a fresh engine, as the reference did:
	// its report, accounting included, must match byte for byte.
	res, _, err := s.visit(opEnv{})
	if err == nil && !bytes.Equal(res, cold) {
		err = errors.New("result differs from the in-process search report")
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up job: %w", err), s.close())
	}
	return s, nil
}

// withoutAccounting re-encodes a search report with each rung's engine
// accounting (evaluated, cache and store hits) zeroed. The server's
// engines are shared: a rung's counts are the engine's counter deltas
// while the rung ran, so they include the work of every job running
// concurrently. The rest of the report does not depend on what else ran.
func withoutAccounting(report []byte) ([]byte, error) {
	var rep search.JSONReport
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil, fmt.Errorf("search report: %w", err)
	}
	for i := range rep.Trace.Rungs {
		r := &rep.Trace.Rungs[i]
		r.Evaluated, r.CacheHits, r.StoreHits = 0, 0, 0
	}
	return json.Marshal(rep)
}

// close stops the listener, drains the server (closing its store) and
// waits for the serving goroutine to return.
func (s *serve) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return errors.Join(err, s.srv.Shutdown(ctx))
}

func (s *serve) op(env opEnv) (opResult, error) {
	res, events, err := s.visit(env)
	if err != nil {
		return opResult{}, err
	}
	got, err := withoutAccounting(res)
	if err != nil {
		return opResult{}, err
	}
	if !bytes.Equal(got, s.ref) {
		return opResult{}, errors.New("job result differs from the in-process search report")
	}
	sum := sha256.Sum256(got)
	return opResult{
		digest: hex.EncodeToString(sum[:]),
		rmsMV:  s.rmsMV,
		counts: map[string]float64{
			"server.events":       float64(events),
			"server.result_bytes": float64(len(res)),
		},
	}, nil
}

// visit is one user's visit: it returns the job's result and how many
// events its stream carried.
func (s *serve) visit(env opEnv) ([]byte, int, error) {
	sp := env.span("server.session")
	var sess server.SessionStatus
	err := s.call(http.MethodPost, "/api/sessions", nil, http.StatusCreated, &sess)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	sessPath := "/api/sessions/" + sess.ID

	sp = env.span("server.submit")
	var job server.JobStatus
	err = s.call(http.MethodPost, sessPath+"/jobs", s.body, http.StatusAccepted, &job)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	jobPath := sessPath + "/jobs/" + job.ID

	sp = env.span("server.stream")
	events, err := s.follow("ws" + s.base[len("http"):] + jobPath + "/ws")
	sp.End()
	if err != nil {
		return nil, 0, err
	}

	sp = env.span("server.result")
	var st server.JobStatus
	err = s.call(http.MethodGet, jobPath, nil, http.StatusOK, &st)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	sp = env.span("server.session")
	err = s.call(http.MethodDelete, sessPath, nil, http.StatusNoContent, nil)
	sp.End()
	if err != nil {
		return nil, 0, err
	}

	if st.State != server.JobDone {
		return nil, events, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st.Result, events, nil
}

// call makes one JSON request and decodes the response into out (nil:
// discard it), failing on any status but want.
func (s *serve) call(method, path string, body []byte, want int, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// follow reads a job's WebSocket stream to its terminal event and returns
// the number of events; a stream ending in anything but done fails.
func (s *serve) follow(url string) (int, error) {
	ws, err := server.DialWS(url)
	if err != nil {
		return 0, err
	}
	defer ws.Close()
	for n := 1; ; n++ {
		msg, err := ws.ReadMessage()
		if err != nil {
			return n, fmt.Errorf("job stream: %w", err)
		}
		var ev server.Event
		if err := json.Unmarshal(msg, &ev); err != nil {
			return n, fmt.Errorf("job stream: %w", err)
		}
		if ev.Terminal() {
			if ev.Type != server.EventDone {
				return n, fmt.Errorf("job stream ended %s: %s", ev.Type, ev.Error)
			}
			return n, nil
		}
	}
}
