package engine

import (
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/mult"
)

// fakeBackend synthesizes metrics from the configuration and counts real
// evaluations, so cache accounting is observable.
type fakeBackend struct {
	evals atomic.Int64
	fail  mult.Config // evaluating this config errors (zero value = never)
}

func (f *fakeBackend) Name() string { return "fake" }

func (f *fakeBackend) Evaluate(cfg mult.Config, cond device.PVT) (Metrics, error) {
	f.evals.Add(1)
	if cfg == f.fail {
		return Metrics{}, errors.New("synthetic corner failure")
	}
	return Metrics{
		Config: cfg,
		Cond:   cond,
		EpsMul: cfg.Tau0 * 1e9,
		EMul:   cfg.VDACFS * 1e-15,
	}, nil
}

func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Config: mult.Config{Tau0: float64(i+1) * 0.1e-9, VDAC0: 0.3, VDACFS: 1.0},
			Cond:   device.Nominal(),
		}
	}
	return jobs
}

func TestCacheHitMissAccounting(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 4)
	jobs := testJobs(12)

	cold, err := eng.EvaluateAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 12 {
		t.Fatalf("cold sweep ran %d backend evaluations, want 12", got)
	}
	st := eng.Stats()
	if st.Misses != 12 || st.Hits != 0 || st.Entries != 12 {
		t.Fatalf("cold stats %+v, want 12 misses / 0 hits / 12 entries", st)
	}

	warm, err := eng.EvaluateAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 12 {
		t.Fatalf("warm sweep re-ran the backend: %d evaluations", got)
	}
	st = eng.Stats()
	if st.Misses != 12 || st.Hits != 12 {
		t.Fatalf("warm stats %+v, want 12 misses / 12 hits", st)
	}
	for i := range jobs {
		if cold[i] != warm[i] {
			t.Fatalf("cached result %d differs from cold result", i)
		}
	}
}

func TestConcurrentSubmissionSingleflight(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 0)
	jobs := testJobs(4)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				m, err := eng.Evaluate(j.Config, j.Cond)
				if err != nil {
					t.Error(err)
					return
				}
				if m.Config != j.Config {
					t.Errorf("result for wrong config: %v", m.Config)
					return
				}
			}
		}()
	}
	wg.Wait()
	// 16 goroutines × 4 jobs, but only 4 distinct keys: every duplicate must
	// have shared the in-flight or cached evaluation.
	if got := fake.evals.Load(); got != 4 {
		t.Fatalf("%d backend evaluations, want 4", got)
	}
	st := eng.Stats()
	if st.Misses != 4 || st.Hits != 60 {
		t.Fatalf("stats %+v, want 4 misses / 60 hits", st)
	}
}

func TestErrorsAreCachedAndAbortSweeps(t *testing.T) {
	bad := mult.Config{Tau0: 0.2e-9, VDAC0: 0.3, VDACFS: 1.0}
	fake := &fakeBackend{fail: bad}
	eng := New(fake, 2)

	if _, err := eng.Evaluate(bad, device.Nominal()); err == nil {
		t.Fatal("failing corner did not error")
	}
	if _, err := eng.Evaluate(bad, device.Nominal()); err == nil {
		t.Fatal("cached failure did not error")
	}
	if got := fake.evals.Load(); got != 1 {
		t.Fatalf("failure evaluated %d times, want 1 (errors are cached)", got)
	}

	jobs := append(testJobs(6), Job{Config: bad, Cond: device.Nominal()})
	if _, err := eng.EvaluateAll(jobs); err == nil {
		t.Fatal("sweep with failing corner did not abort")
	}
}

// panicBackend panics on every evaluation — the regression fixture for the
// claim-safety fix: before it, a backend panic left the claimed cache entry
// unresolved and every later submitter of the key blocked forever on its
// done channel.
type panicBackend struct{}

func (panicBackend) Name() string { return "panic" }
func (panicBackend) Evaluate(mult.Config, device.PVT) (Metrics, error) {
	panic("synthetic backend panic")
}

// TestBackendPanicResolvesClaimedEntry submits the same key from several
// goroutines against a panicking backend. Pre-fix this test dies on the
// uncaught panic (and the waiters would hang forever); post-fix every
// submitter — the one that ran the backend and the ones waiting on its
// claim — gets an error, within the deadline.
func TestBackendPanicResolvesClaimedEntry(t *testing.T) {
	eng := New(panicBackend{}, 2)
	job := testJobs(1)[0]

	const submitters = 4
	done := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		go func() {
			_, err := eng.Evaluate(job.Config, job.Cond)
			done <- err
		}()
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < submitters; i++ {
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("submitter got %v, want a backend-panicked error", err)
			}
		case <-deadline:
			t.Fatal("submitter blocked on the panicked backend's claimed entry")
		}
	}
	// The panic is cached like any deterministic failure.
	if _, err := eng.Evaluate(job.Config, job.Cond); err == nil {
		t.Fatal("cached panic did not error")
	}

	// The batched path resolves every claimed entry too: the batch errors
	// but returns instead of hanging, and re-submitting doesn't hang either.
	batchDone := make(chan error, 1)
	go func() {
		_, err := eng.EvaluateBatch(testJobs(3))
		batchDone <- err
	}()
	select {
	case err := <-batchDone:
		if err == nil {
			t.Fatal("batch over a panicking backend did not error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("batch blocked on panicked backend entries")
	}
}

func TestStatsString(t *testing.T) {
	cases := []struct {
		st   Stats
		want string
	}{
		{Stats{Misses: 3, Hits: 1, Entries: 3}, "3 evaluated, 1 cache hits, 3 entries"},
		{Stats{Misses: 2, DiskHits: 5, Entries: 7}, "2 evaluated, 0 cache hits, 7 entries, 5 store hits"},
		// Store errors without disk hits must not print "0 store hits".
		{Stats{Misses: 4, StoreErrors: 2, Entries: 4}, "4 evaluated, 0 cache hits, 4 entries, 2 store errors"},
		{Stats{Misses: 1, DiskHits: 3, StoreErrors: 1, Entries: 4}, "1 evaluated, 0 cache hits, 4 entries, 3 store hits, 1 store errors"},
	}
	for _, c := range cases {
		if got := c.st.String(); got != c.want {
			t.Errorf("Stats%+v.String() = %q, want %q", c.st, got, c.want)
		}
	}
}

func TestSplitBudget(t *testing.T) {
	eng := New(&fakeBackend{}, 8)
	cases := []struct {
		jobs                              int
		wantWorkers, wantIntra, wantExtra int
	}{
		{1, 1, 8, 0},  // one job gets the whole budget
		{3, 3, 2, 2},  // 3×2 + 2 remainder grants = exactly 8
		{8, 8, 1, 0},  // exact fit
		{48, 8, 1, 0}, // more jobs than budget: job-level fan-out only
	}
	for _, c := range cases {
		gotW, gotI, gotE := eng.splitBudget(c.jobs)
		if gotW != c.wantWorkers || gotI != c.wantIntra || gotE != c.wantExtra {
			t.Errorf("splitBudget(%d) = (%d, %d, %d), want (%d, %d, %d)",
				c.jobs, gotW, gotI, gotE, c.wantWorkers, c.wantIntra, c.wantExtra)
		}
		// The grants of all potentially concurrent jobs must cover — and
		// never exceed — the budget.
		inFlight := c.jobs
		if inFlight > gotW {
			inFlight = gotW
		}
		sum := inFlight*gotI + gotE
		if sum > eng.Workers() {
			t.Errorf("splitBudget(%d) oversubscribes: %d×%d + %d extra > %d", c.jobs, inFlight, gotI, gotE, eng.Workers())
		}
		if c.jobs <= eng.Workers() && sum != eng.Workers() {
			t.Errorf("splitBudget(%d) strands budget: %d×%d + %d extra < %d", c.jobs, inFlight, gotI, gotE, eng.Workers())
		}
	}
}

// intraFake records the intra-job budgets the engine grants, so the
// job-level/intra-job negotiation is observable.
type intraFake struct {
	fakeBackend
	mu     sync.Mutex
	intras []int
}

func (f *intraFake) EvaluateBudget(cfg mult.Config, cond device.PVT, intra int) (Metrics, error) {
	f.mu.Lock()
	f.intras = append(f.intras, intra)
	f.mu.Unlock()
	return f.Evaluate(cfg, cond)
}

func TestEngineGrantsIntraBudget(t *testing.T) {
	fake := &intraFake{}
	eng := New(fake, 8)

	// A single submission gets the whole budget.
	job := testJobs(1)[0]
	if _, err := eng.Evaluate(job.Config, job.Cond); err != nil {
		t.Fatal(err)
	}
	if len(fake.intras) != 1 || fake.intras[0] != 8 {
		t.Fatalf("single Evaluate granted %v, want [8]", fake.intras)
	}

	// A 2-job batch splits 8 = 2 jobs × 4 intra.
	fake.intras = nil
	if _, err := eng.EvaluateBatch(testJobs(3)[1:]); err != nil {
		t.Fatal(err)
	}
	if len(fake.intras) != 2 || fake.intras[0] != 4 || fake.intras[1] != 4 {
		t.Fatalf("2-job batch granted %v, want [4 4]", fake.intras)
	}

	// A 3-job batch splits 8 = 3 jobs × 2 intra + 2 remainder grants — the
	// budget is never stranded by integer division.
	fake.intras = nil
	if _, err := eng.EvaluateBatch(testJobs(15)[12:]); err != nil {
		t.Fatal(err)
	}
	sort.Ints(fake.intras)
	if len(fake.intras) != 3 || fake.intras[0] != 2 || fake.intras[1] != 3 || fake.intras[2] != 3 {
		t.Fatalf("3-job batch granted %v, want [2 3 3]", fake.intras)
	}

	// A batch at least as wide as the budget grants intra = 1, which the
	// engine serves through plain Evaluate (no budget call at all).
	fake.intras = nil
	if _, err := eng.EvaluateBatch(testJobs(12)[3:]); err != nil {
		t.Fatal(err)
	}
	if len(fake.intras) != 0 {
		t.Fatalf("wide batch granted %v, want Evaluate (intra=1) for every job", fake.intras)
	}
}

var (
	equivOnce  sync.Once
	equivModel *core.Model
	equivErr   error
)

// TestBackendEquivalenceSmoke cross-checks the two production backends on a
// handful of corners: the behavioral models are calibrated against the
// golden simulator, so both must agree on the accuracy and energy of a
// corner within the calibration residuals (the behavioral ϵ additionally
// carries the analytic noise expectation, so the tolerance is in LSBs, not
// bits).
func TestBackendEquivalenceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-simulation bound")
	}
	equivOnce.Do(func() {
		equivModel, equivErr = core.Calibrate(core.QuickCalibration())
	})
	if equivErr != nil {
		t.Fatal(equivErr)
	}
	calib := core.QuickCalibration()
	behavioral := New(Behavioral{Model: equivModel}, 0)
	golden := New(NewGoldenBackend(calib.Tech, calib.Spice), 0)

	jobs := Jobs([]mult.Config{
		{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0},
		{Tau0: 0.28e-9, VDAC0: 0.4, VDACFS: 0.8},
	}, device.Nominal())
	cmps, err := CompareAll(behavioral, golden, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmps {
		if c.A.EpsMul <= 0 || c.B.EpsMul < 0 {
			t.Fatalf("corner %v: degenerate errors %+v", c.Job.Config, c)
		}
		// Both backends must produce a usable variation criterion (the
		// golden one comes from Monte-Carlo mismatch sampling).
		if c.A.SigmaMaxLSB <= 0 || c.B.SigmaMaxLSB <= 0 {
			t.Errorf("corner %v: σ@max missing (behavioral %.3f, golden %.3f LSB)",
				c.Job.Config, c.A.SigmaMaxLSB, c.B.SigmaMaxLSB)
		}
		if math.Abs(c.DeltaEps) > 2.0 {
			t.Errorf("corner %v: ϵ disagreement %.2f LSB (behavioral %.2f, golden %.2f)",
				c.Job.Config, c.DeltaEps, c.A.EpsMul, c.B.EpsMul)
		}
		if c.EnergyRatio < 0.7 || c.EnergyRatio > 1.3 {
			t.Errorf("corner %v: energy ratio %.2f outside [0.7, 1.3] (behavioral %.1f fJ, golden %.1f fJ)",
				c.Job.Config, c.EnergyRatio, c.A.EMul*1e15, c.B.EMul*1e15)
		}
	}
}

// fakeStore is an in-memory engine.Store with call accounting, so the
// tiered lookup path is observable without touching disk (internal/store
// tests the real implementation against a live engine).
type fakeStore struct {
	mu      sync.Mutex
	data    map[Key]Metrics
	gets    int
	puts    int // PutBatch calls, not entries
	putKeys int
	failPut bool
}

func newFakeStore() *fakeStore { return &fakeStore{data: map[Key]Metrics{}} }

func (s *fakeStore) Get(key Key) (Metrics, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	met, ok := s.data[key]
	return met, ok
}

func (s *fakeStore) PutBatch(entries []CacheEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.putKeys += len(entries)
	if s.failPut {
		return errors.New("synthetic store failure")
	}
	for _, ent := range entries {
		s.data[ent.Key] = ent.Met
	}
	return nil
}

func TestTieredLookupAndGroupPersist(t *testing.T) {
	fake := &fakeBackend{}
	disk := newFakeStore()
	eng := New(fake, 4).WithStore(disk)
	jobs := testJobs(12)

	// Cold batch: every corner runs the backend and persists in ONE group.
	if _, err := eng.EvaluateBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 12 {
		t.Fatalf("cold batch ran %d backend evaluations, want 12", got)
	}
	if disk.puts != 1 || disk.putKeys != 12 {
		t.Fatalf("cold batch persisted %d keys in %d writes, want 12 in 1", disk.putKeys, disk.puts)
	}
	st := eng.Stats()
	if st.Misses != 12 || st.DiskHits != 0 {
		t.Fatalf("cold stats %+v", st)
	}

	// A second engine over the same store: zero backend work, all disk.
	eng2 := New(&fakeBackend{}, 4).WithStore(disk)
	warm, err := eng2.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st = eng2.Stats()
	if st.Misses != 0 || st.DiskHits != 12 || st.Hits != 0 {
		t.Fatalf("warm stats %+v, want 0 misses / 12 disk hits", st)
	}
	for i, j := range jobs {
		if warm[i].Config != j.Config {
			t.Fatalf("disk tier returned wrong corner at %d", i)
		}
	}
	// Third sweep on the same engine: memory tier, no store traffic.
	getsBefore := disk.gets
	if _, err := eng2.EvaluateBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if disk.gets != getsBefore {
		t.Fatal("memory-tier hits must not consult the store")
	}
	if st := eng2.Stats(); st.Hits != 12 {
		t.Fatalf("memory-tier stats %+v", st)
	}
}

func TestEvaluateSingleUsesTiers(t *testing.T) {
	fake := &fakeBackend{}
	disk := newFakeStore()
	eng := New(fake, 0).WithStore(disk)
	job := testJobs(1)[0]

	if _, err := eng.Evaluate(job.Config, job.Cond); err != nil {
		t.Fatal(err)
	}
	if disk.putKeys != 1 {
		t.Fatalf("single evaluation persisted %d keys, want 1", disk.putKeys)
	}
	eng2 := New(fake, 0).WithStore(disk)
	if _, err := eng2.Evaluate(job.Config, job.Cond); err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1 (second hit from disk)", got)
	}
	if st := eng2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreFailureIsBestEffort(t *testing.T) {
	fake := &fakeBackend{}
	disk := newFakeStore()
	disk.failPut = true
	eng := New(fake, 2).WithStore(disk)
	jobs := testJobs(6)
	mets, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatalf("store failure must not fail the sweep: %v", err)
	}
	if len(mets) != 6 {
		t.Fatalf("sweep returned %d results", len(mets))
	}
	st := eng.Stats()
	if st.StoreErrors == 0 {
		t.Fatal("failed persistence not accounted")
	}
	if st.Misses != 6 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEvaluateBatchDedupesAndOrders(t *testing.T) {
	fake := &fakeBackend{}
	eng := New(fake, 3)
	base := testJobs(4)
	jobs := append(append([]Job{}, base...), base[1], base[3], base[1])

	mets, err := eng.EvaluateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 4 {
		t.Fatalf("batch with duplicates ran %d backend evaluations, want 4", got)
	}
	for i, j := range jobs {
		if mets[i].Config != j.Config || mets[i].Cond != j.Cond {
			t.Fatalf("result %d out of order: got %v, want %v", i, mets[i].Config, j.Config)
		}
	}
	if st := eng.Stats(); st.Misses != 4 || st.Hits != 3 {
		t.Fatalf("stats %+v, want 4 misses / 3 hits", st)
	}
}

func TestEvaluateBatchErrorByJobIndex(t *testing.T) {
	bad := mult.Config{Tau0: 0.2e-9, VDAC0: 0.3, VDACFS: 1.0}
	fake := &fakeBackend{fail: bad}
	eng := New(fake, 2)
	// testJobs(5) spans τ0 = 0.1…0.5 ns, so jobs[2] (0.2 ns) duplicates the
	// failing corner and the batch holds 5 distinct keys.
	jobs := append([]Job{{Config: bad, Cond: device.Nominal()}}, testJobs(5)...)
	if _, err := eng.EvaluateBatch(jobs); err == nil {
		t.Fatal("batch with failing corner did not error")
	}
	if got := fake.evals.Load(); got != 5 {
		t.Fatalf("failed batch ran %d backend evaluations, want 5 (dedupe + run to completion)", got)
	}
	// The healthy corners of the batch are resolved and cached: re-scoring
	// one runs no backend work.
	if _, err := eng.Evaluate(jobs[3].Config, jobs[3].Cond); err != nil {
		t.Fatal(err)
	}
	if got := fake.evals.Load(); got != 5 {
		t.Fatalf("healthy corner of failed batch not cached: %d evaluations", got)
	}
}

// TestBatchTallyCountsOwnTiers pins BatchOptions.Tally: each tier's count
// is added for this batch alone — store hits, backend runs, and memory
// hits including a duplicate within the batch — and a reused Tally sums.
func TestBatchTallyCountsOwnTiers(t *testing.T) {
	disk := newFakeStore()
	jobs := testJobs(4)
	if _, err := New(&fakeBackend{}, 2).WithStore(disk).EvaluateBatch(jobs[:2]); err != nil {
		t.Fatal(err)
	}
	eng := New(&fakeBackend{}, 2).WithStore(disk)
	var tally Stats
	batch := append(append([]Job(nil), jobs...), jobs[3])
	if _, err := eng.EvaluateBatchOpts(batch, BatchOptions{Tally: &tally}); err != nil {
		t.Fatal(err)
	}
	if want := (Stats{DiskHits: 2, Misses: 2, Hits: 1}); tally != want {
		t.Fatalf("cold batch tally %+v, want %+v", tally, want)
	}
	if _, err := eng.EvaluateBatchOpts(jobs, BatchOptions{Tally: &tally}); err != nil {
		t.Fatal(err)
	}
	if want := (Stats{DiskHits: 2, Misses: 2, Hits: 5}); tally != want {
		t.Fatalf("tally after a warm batch %+v, want %+v", tally, want)
	}
}
