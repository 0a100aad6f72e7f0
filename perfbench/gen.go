package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/dax"
	"reassign/internal/sched"
	"reassign/internal/sim"
)

// structure is one workflow structure a workload cycles through, with
// the generator's own copy of what the daemon will build from it.
type structure struct {
	// spec is the workflow as jobs send it: synth, its synthetic spec,
	// or for replay jobs the same workflow as a DAX document.
	spec, synth api.WorkflowSpec
	fleet       api.FleetSpec
	wf          *dag.Workflow
	fl          *cloud.Fleet
	// plan is the HEFT plan replay jobs submit (nil for learning jobs).
	plan *api.PlanDocument
}

// inputs is everything a run submits, made from the seed alone.
type inputs struct {
	w       *workload
	seed    int64
	structs []*structure
	// due holds the open-loop arrival offsets from the window start,
	// ascending; nil for a closed loop, whose jobs are due when a
	// client is ready for them.
	due []time.Duration
}

// mix derives an independent 63-bit stream value from the run seed, a
// stream label and an index (splitmix64 finalizer), so every input is
// a pure function of (seed, what, i) and can be made lazily.
func mix(seed int64, what string, i int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(what) {
		z = (z ^ uint64(c)) * 0x100000001b3
	}
	z += uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// generate builds the run's structures and, for an open loop, the
// arrival schedule of a window of the given length.
func generate(w *workload, seed int64, window time.Duration) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	for k := 0; k < w.structures; k++ {
		s, err := newStructure(w, mix(seed, "structure", k))
		if err != nil {
			return nil, fmt.Errorf("structure %d: %w", k, err)
		}
		in.structs = append(in.structs, s)
	}
	if w.rate > 0 {
		in.due = arrivals(rand.New(rand.NewSource(mix(seed, "arrivals", 0))), w.rate, window)
	}
	return in, nil
}

// arrivals draws a Poisson arrival schedule over [0, window) with
// exactly round(rate*window) arrivals: uniform order statistics, which
// is a Poisson process conditioned on its count. Fixing the count keeps
// the offered load identical across seeds.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	return due
}

func newStructure(w *workload, seed int64) (*structure, error) {
	s := &structure{
		synth: api.WorkflowSpec{Synthetic: &api.SyntheticSpec{Family: "montage", Nodes: w.nodes, Seed: seed}},
		fleet: api.FleetSpec{Preset: w.preset, VCPUs: w.vcpus},
	}
	s.spec = s.synth
	var err error
	if s.wf, err = s.synth.Build(); err != nil {
		return nil, err
	}
	if w.replay {
		// Clients that bring their own inputs: the workflow travels as
		// a DAX document.
		var doc strings.Builder
		if err := dax.Write(&doc, s.wf); err != nil {
			return nil, err
		}
		s.spec = api.WorkflowSpec{Format: "dax", Source: doc.String()}
		if s.wf, err = s.spec.Build(); err != nil {
			return nil, err
		}
	}
	if s.fl, err = s.fleet.Build(); err != nil {
		return nil, err
	}
	if w.replay {
		h := &sched.HEFT{}
		if _, err := sim.Run(s.wf, s.fl, h, sim.Config{Seed: seed}); err != nil {
			return nil, fmt.Errorf("HEFT plan: %w", err)
		}
		s.plan = api.NewPlanDocument(s.wf.Name, s.fl.Name, 0, core.NewPlan(h.Assign()))
	}
	return s, nil
}

// warmups is the number of set-up jobs: one per structure.
func (in *inputs) warmups() int { return len(in.structs) }

// structOf returns the structure job i uses. Jobs are numbered from 0
// across the set-up jobs and then the measured ones, and cycle through
// the structures in order.
func (in *inputs) structOf(i int) *structure { return in.structs[i%len(in.structs)] }

// request builds job i's submission.
func (in *inputs) request(i int) *api.SubmitRequest {
	w, s := in.w, in.structOf(i)
	req := &api.SubmitRequest{
		SchemaVersion: api.SchemaVersion,
		Workflow:      s.spec,
		Fleet:         s.fleet,
		Learn:         api.LearnSpec{Episodes: w.episodes},
		Seed:          mix(in.seed, "job", i) % 1_000_000_000,
		Fluctuation:   true,
		Execute:       w.execute,
		Plan:          s.plan,
	}
	if w.market != "" {
		req.Market = &api.MarketSpec{Regime: w.market}
	}
	return req
}

// body is job i's POST /v1/jobs payload. Bodies are made when sent
// rather than kept, since replay bodies are ~140 KB each.
func (in *inputs) body(i int) ([]byte, error) {
	return json.Marshal(in.request(i))
}
