package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"optima/internal/core"
	"optima/internal/engine"
	"optima/internal/obs"
	"optima/internal/search"
	"optima/internal/store"
)

// The `optima search` default space (1200 corners) and the budget below it,
// so the seed picks which candidates rung 0 screens.
const (
	searchTau0   = "0.16:0.28:100"
	searchVDAC0  = "0.3:0.5:3"
	searchVDACFS = "0.7:1.0:4"
	searchBudget = 1000
)

// calibrated runs the default calibration recipe on the benchmark's worker
// budget: the model the search, dnn and serve workloads run on.
func calibrated() (core.CalibrationConfig, *core.Model, error) {
	calib := core.DefaultCalibration()
	calib.Workers = workers
	model, err := core.Calibrate(calib)
	return calib, model, err
}

// searchInputs are the inputs shared by the search and serve workloads.
type searchInputs struct {
	calib core.CalibrationConfig
	model *core.Model
	space search.Space
	conds engine.ConditionSet
	seed  uint64
}

func newSearchInputs(seed uint64) (searchInputs, error) {
	calib, model, err := calibrated()
	if err != nil {
		return searchInputs{}, err
	}
	space, err := search.ParseSpaceSpec(searchTau0, searchVDAC0, searchVDACFS)
	if err != nil {
		return searchInputs{}, err
	}
	conds, err := engine.ParseConditionSet(exploreConditions)
	if err != nil {
		return searchInputs{}, err
	}
	return searchInputs{calib: calib, model: model, space: space, conds: conds, seed: seed}, nil
}

// options returns the robust search of the inputs on a screen engine.
func (in searchInputs) options(screen *engine.Engine) search.Options {
	return search.Options{
		Space:      in.space,
		Screen:     screen,
		Conditions: in.conds,
		Budget:     searchBudget,
		Seed:       in.seed,
	}
}

// reference runs the search in-process on a fresh memory-only engine and
// returns its JSON report, as `optima search` writes it.
func (in searchInputs) reference() ([]byte, error) {
	res, err := search.Run(context.Background(), in.options(engine.New(engine.Behavioral{Model: in.model}, workers)))
	if err != nil {
		return nil, err
	}
	return json.Marshal(search.NewJSONReport(res))
}

// searchWL is the cold-then-warm `optima search -cache-dir` cycle: one op
// searches with an empty store, closes it, reopens it with a fresh engine
// and searches again from the store alone.
type searchWL struct {
	in  searchInputs
	fp  string
	dir string
}

func setupSearch(seed uint64, dir string, _ *obs.Recorder) (workload, error) {
	in, err := newSearchInputs(seed)
	if err != nil {
		return nil, err
	}
	fp, err := store.Fingerprint(engine.MetricsSchema, in.model, in.calib.Tech, in.calib.Spice)
	if err != nil {
		return nil, err
	}
	return &searchWL{in: in, fp: fp, dir: dir}, nil
}

func (s *searchWL) close() error { return nil }

// searchPass is what one search over the store leaves.
type searchPass struct {
	report  search.JSONReport
	stats   engine.Stats
	records int
}

func (s *searchWL) op(env opEnv) (opResult, error) {
	dir, err := os.MkdirTemp(s.dir, "store-")
	if err != nil {
		return opResult{}, err
	}
	defer os.RemoveAll(dir)
	cold, err := s.pass(env, dir, "search.cold")
	if err != nil {
		return opResult{}, err
	}
	warm, err := s.pass(env, dir, "search.warm")
	if err != nil {
		return opResult{}, err
	}

	cells := uint64(searchBudget * s.in.conds.Len())
	if cold.stats.Misses != cells {
		return opResult{}, fmt.Errorf("cold search evaluated %d cells, want %d", cold.stats.Misses, cells)
	}
	if warm.stats.Misses != 0 || warm.stats.DiskHits != cells {
		return opResult{}, fmt.Errorf("warm search evaluated %d cells and read %d from the store, want 0 and %d",
			warm.stats.Misses, warm.stats.DiskHits, cells)
	}
	coldFront, err := json.Marshal(cold.report.Front)
	if err != nil {
		return opResult{}, err
	}
	warmFront, err := json.Marshal(warm.report.Front)
	if err != nil {
		return opResult{}, err
	}
	if !bytes.Equal(coldFront, warmFront) {
		return opResult{}, fmt.Errorf("warm search front differs from the cold one")
	}
	size, err := dirBytes(dir)
	if err != nil {
		return opResult{}, err
	}
	digest, err := digestOf(cold.report)
	if err != nil {
		return opResult{}, err
	}
	return opResult{
		digest: digest,
		rmsMV:  s.in.model.Report.VDDRMSVolts * 1e3,
		counts: map[string]float64{
			"store.segment_bytes": float64(size),
			"store.records":       float64(warm.records),
		},
	}, nil
}

// pass opens the store, searches through a fresh engine over it, and
// closes the store.
func (s *searchWL) pass(env opEnv, dir, name string) (searchPass, error) {
	sp := env.span("store.open")
	st, err := store.Open(dir, store.Options{Fingerprint: s.fp, Recorder: env.rec})
	sp.End()
	if err != nil {
		return searchPass{}, err
	}
	eng := engine.New(engine.Behavioral{Model: s.in.model}, workers).WithStore(st).WithRecorder(env.rec)
	opts := s.in.options(eng)
	sp = env.span(name)
	opts.Recorder, opts.Span = env.rec, sp.ID()
	res, err := search.Run(context.Background(), opts)
	sp.End()
	out := searchPass{stats: eng.Stats(), records: st.Len()}
	if res != nil {
		out.report = search.NewJSONReport(res)
	}
	sp = env.span("store.close")
	cerr := st.Close()
	sp.End()
	if err == nil {
		err = cerr
	}
	return out, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
