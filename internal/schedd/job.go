package schedd

import (
	"context"
	"errors"
	"sync"
	"time"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
	"reassign/internal/market"
	"reassign/internal/provenance"
	"reassign/internal/sched"
	"reassign/internal/sim"
)

// job is one submission's full lifecycle: queued → running →
// done/failed/canceled. The mutable state behind mu is what status()
// snapshots for the API.
//
// A finished job stays in the registry until evicted, but only its
// outcome is needed then: release drops the inputs (the built
// workflow and fleet, and the request's workflow document and plan),
// so retained jobs do not hold a workflow's worth of memory each.
// status() reads the names and sizes captured at submit instead.
type job struct {
	id     string
	req    api.SubmitRequest
	tenant string // normalised accounting label (empty → "default")
	w      *dag.Workflow
	fleet  *cloud.Fleet
	sig    string

	workflowName string
	activations  int
	fleetName    string
	vms          int

	mu         sync.Mutex
	state      string
	submitted  time.Time
	started    time.Time
	finishedAt time.Time
	cancelRun  context.CancelFunc

	cacheHit       bool
	episodes       int
	learnSeconds   float64
	plan           *api.PlanDocument
	prov           []provenance.Execution
	execMakespan   float64
	marketCost     float64
	preemptions    int
	deadlineMissed bool
	err            *api.Error
}

// finished reports whether the job reached a terminal state.
func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case api.StateDone, api.StateFailed, api.StateCanceled:
		return true
	}
	return false
}

// newJob registers a submission's built inputs with the fields
// status() reports about them.
func newJob(id string, req api.SubmitRequest, w *dag.Workflow, fleet *cloud.Fleet) *job {
	return &job{
		id:           id,
		req:          req,
		tenant:       tenantLabel(req.Tenant),
		w:            w,
		fleet:        fleet,
		sig:          api.StructureSignature(w, fleet),
		workflowName: w.Name,
		activations:  w.Len(),
		fleetName:    fleet.Name,
		vms:          fleet.Len(),
		state:        api.StateQueued,
		submitted:    time.Now(),
	}
}

// release drops the inputs of a job that reached a terminal state.
// The caller holds j.mu; no pipeline is running on the job.
func (j *job) release() {
	j.w, j.fleet = nil, nil
	j.req.Workflow = api.WorkflowSpec{}
	j.req.Plan = nil
}

// status snapshots the job as an api.JobStatus.
func (j *job) status() *api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &api.JobStatus{
		SchemaVersion:       api.SchemaVersion,
		ID:                  j.id,
		State:               j.state,
		Workflow:            j.workflowName,
		Activations:         j.activations,
		Fleet:               j.fleetName,
		VMs:                 j.vms,
		SubmittedAt:         j.submitted.UTC().Format(time.RFC3339Nano),
		Episodes:            j.episodes,
		CacheHit:            j.cacheHit,
		LearningSeconds:     j.learnSeconds,
		Plan:                j.plan,
		Provenance:          j.prov,
		ExecMakespanSeconds: j.execMakespan,
		MarketCostUSD:       j.marketCost,
		Preemptions:         j.preemptions,
		Tenant:              j.req.Tenant,
		DeadlineSeconds:     j.req.DeadlineSeconds,
		DeadlineMissed:      j.deadlineMissed,
		Error:               j.err,
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
		st.LatencySeconds = j.finishedAt.Sub(j.submitted).Seconds()
	}
	return st
}

// runJob executes one popped job on a worker goroutine.
func (s *Server) runJob(j *job) {
	if s.testHook != nil {
		s.testHook(j)
	}
	j.mu.Lock()
	if j.state != api.StateQueued {
		// Canceled while queued; the cancel handler already settled it.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.state = api.StateRunning
	j.started = time.Now()
	j.cancelRun = cancel
	j.mu.Unlock()
	defer cancel()
	s.tenants.started(j.tenant)

	s.inflight.Add(1)
	err := s.execute(ctx, j)
	s.inflight.Add(-1)

	now := time.Now()
	state, jerr := api.StateDone, (*api.Error)(nil)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state = api.StateCanceled
		jerr = api.Errorf(api.CodeCanceled, "", "canceled while running")
	default:
		state = api.StateFailed
		jerr = api.FromError(err)
	}
	// submitted and the deadline never change after submit.
	latency := now.Sub(j.submitted).Seconds()
	deadline := j.req.DeadlineSeconds

	// Account before publishing the terminal state, so a client that
	// sees the job finished also sees it in the counters and tenant
	// gauges.
	switch state {
	case api.StateDone:
		s.completed.Add(1)
	case api.StateCanceled:
		s.canceled.Add(1)
	default:
		s.failed.Add(1)
	}
	s.recordLatency(latency)
	s.tenants.finished(j.tenant, state, latency, deadline, true)

	j.mu.Lock()
	j.finishedAt = now
	j.state = state
	j.err = jerr
	j.deadlineMissed = deadline > 0 && latency > deadline
	j.release()
	j.mu.Unlock()
}

// execute runs the job's pipeline: replay a submitted plan, or learn
// one (optionally warm-started from the cache), then optionally
// execute it on the virtual-time master for provenance.
func (s *Server) execute(ctx context.Context, j *job) error {
	req := j.req
	var fluct *cloud.FluctuationModel
	if req.Fluctuation {
		fm := cloud.DefaultFluctuation()
		fluct = &fm
	}

	var doc *api.PlanDocument
	if req.Plan != nil {
		// Replay path: the plan was validated at submission; simulate it
		// for its makespan. The run carries the job's context, so cancel
		// (and daemon shutdown) aborts a replay mid-simulation instead
		// of blocking until it finishes.
		eng, err := s.pool.Acquire(j.w, j.fleet, &sched.Plan{
			PlanName: "submitted",
			Assign:   req.Plan.Plan.Map(),
		}, sim.Config{Seed: req.Seed, Fluct: fluct, Sink: s.agg, Ctx: ctx})
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			s.pool.Put(eng)
			return err
		}
		makespan := res.Makespan
		s.pool.Put(eng)
		doc = api.NewPlanDocument(j.w.Name, j.fleet.Name, makespan, req.Plan.Plan)
	} else {
		params := core.DefaultParams()
		if req.Learn.Alpha != 0 {
			params.Alpha = req.Learn.Alpha
		}
		if req.Learn.Gamma != 0 {
			params.Gamma = req.Learn.Gamma
		}
		if req.Learn.Epsilon != 0 {
			params.Epsilon = req.Learn.Epsilon
		}
		episodes := req.Learn.Episodes
		if episodes == 0 {
			episodes = s.cfg.DefaultEpisodes
		}
		opts := []core.Option{
			core.WithSeed(req.Seed),
			core.WithSink(s.agg),
			core.WithEnginePool(s.pool),
			core.WithContext(ctx),
		}
		if req.Learn.Replicas > 1 {
			opts = append(opts, core.WithReplicas(req.Learn.Replicas))
		}
		if !req.NoWarmStart {
			if t := s.cache.get(j.sig, req.Seed); t != nil {
				opts = append(opts, core.WithTable(t))
				j.mu.Lock()
				j.cacheHit = true
				j.mu.Unlock()
			}
		}
		learner, err := core.NewLearner(core.Config{
			Workflow: j.w,
			Fleet:    j.fleet,
			Params:   params,
			Episodes: episodes,
			Sim:      sim.Config{Fluct: fluct},
		}, opts...)
		if err != nil {
			return err
		}
		res, err := learner.Learn()
		if err != nil {
			return err
		}
		// The finished table feeds future same-structure submissions —
		// including NoWarmStart ones, which skip the read but still
		// contribute their result.
		s.cache.put(j.sig, res.Table)
		doc = api.NewPlanDocument(j.w.Name, j.fleet.Name, res.PlanMakespan, res.Plan)
		j.mu.Lock()
		j.episodes = len(res.Episodes)
		j.learnSeconds = res.LearningTime.Seconds()
		j.mu.Unlock()
	}
	j.mu.Lock()
	j.plan = doc
	j.mu.Unlock()

	if !req.Execute {
		return nil
	}
	store := provenance.NewStore()
	workers := j.fleet.Len()
	if workers > 8 {
		workers = 8
	}
	var tr exec.Transport = &exec.InProc{
		Workers: workers,
		Runner:  exec.SimRunner{Fluct: fluct, Seed: req.Seed + 2000},
	}
	opts := []exec.Option{exec.WithStore(store, j.id), exec.WithSink(s.agg)}

	// Market replay: generate the trace against the job's fleet and
	// wrap the transport so traced notices, kills and health changes
	// reach the master interleaved with worker traffic.
	var pb *market.Playback
	if req.Market != nil {
		rg, _ := market.RegimeByName(req.Market.Regime) // validated at submit
		mseed := req.Market.Seed
		if mseed == 0 {
			mseed = req.Seed + 4000
		}
		horizon := req.Market.Horizon
		if horizon == 0 {
			horizon = 3600
		}
		trc, err := market.Generate(market.DefaultCatalogue(), j.fleet, rg, mseed, horizon)
		if err != nil {
			return err
		}
		pb, err = market.NewPlayback(trc, nil)
		if err != nil {
			return err
		}
		tr = exec.NewMarketFeed(tr, pb)
		opts = append(opts, exec.WithMarket(pb))
		if req.Market.ReactiveOnly {
			opts = append(opts, exec.WithReactiveOnly())
		}
	}

	m, err := exec.New(j.w, j.fleet, doc.Plan, tr, opts...)
	if err != nil {
		return err
	}
	rep, err := m.Run(ctx)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.prov = store.All()
	j.execMakespan = rep.Makespan
	if pb != nil {
		j.marketCost = rep.Cost
		j.preemptions = rep.Preempted
	}
	j.mu.Unlock()
	if pb != nil {
		s.markets.record(pb, rep)
	}
	return nil
}
