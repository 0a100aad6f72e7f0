package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"reassign/internal/api"
	"reassign/internal/cloud"
	"reassign/internal/core"
	"reassign/internal/dag"
	"reassign/internal/exec"
	"reassign/internal/market"
	"reassign/internal/provenance"
	"reassign/internal/rl"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/telemetry"
)

// The traced run replays jobs in process through the public calls
// schedd makes for them, in the order it makes them, and with its
// structure: a front end that decodes and builds each submission, an
// admission queue, two workers that run jobs, and a status step that
// encodes the finished job and decodes and checks it as the client
// does. Jobs arrive on the run's own schedule (or closed loop), so the
// layers contend for the two CPUs as they do in the daemon. Every call
// gets a span.

const (
	// replayWindow is how much of the schedule (or closed-loop time)
	// the traced run replays, in parts between those of the daemon's
	// window.
	replayWindow = 10 * time.Second
	// replayWorkers and replayQueue are schedd's defaults on 2 CPUs.
	replayWorkers = 2
	replayQueue   = 256
	// retainJobs is schedd's default MaxJobs: the daemon keeps that
	// many finished jobs (request, workflow, fleet, plan, provenance),
	// and so does the replay, since their heap is the collector's work.
	retainJobs = 4096
	// probes bounds the measured jobs that are probed once the replay
	// is over (see probe).
	probes = 64
)

// span is one timed call into a layer. Spans of one job share Job;
// Parent indexes the enclosing span (-1 for a job's root).
type span struct {
	Name   string        `json:"name"`
	Job    int           `json:"job"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, job, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanCost times one begin/end pair on an idle tracer.
func spanCost() time.Duration {
	const n = 100000
	t := &tracer{epoch: time.Now()}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", i, -1))
	}
	return time.Since(start) / n
}

// episodeCounter is a telemetry sink that tallies learning episodes
// and their decisions and DES events.
type episodeCounter struct {
	episodes          int
	decisions, events int64
}

func (c *episodeCounter) Emit(e telemetry.Event) {
	if ev, ok := e.(telemetry.EpisodeEvent); ok && ev.Episode >= 0 {
		c.episodes++
		c.decisions += int64(ev.Decisions)
		c.events += ev.Events
	}
}

// jobTrace holds one replayed job's counts and the layer-reported
// times that spans cannot see.
type jobTrace struct {
	Index int `json:"job"`
	// LearningTime is Result.LearningTime, the learner's own timing of
	// its episode loop inside the core.learn span.
	LearningTime time.Duration `json:"learning_ns,omitempty"`
	Episodes     int           `json:"episodes,omitempty"`
	Decisions    int64         `json:"decisions,omitempty"`
	Events       int64         `json:"events,omitempty"`
	// SimEpisode times one run of the learned plan on a reset engine
	// (same workflow, fleet and fluctuation), after the replay.
	SimEpisode   time.Duration `json:"sim_episode_ns,omitempty"`
	ReplayEvents int64         `json:"replay_events,omitempty"`
	Exec         *execCounts   `json:"exec,omitempty"`
}

type execCounts struct {
	Wall       time.Duration `json:"wall_ns"`
	Tasks      int           `json:"tasks"`
	Attempts   int           `json:"attempts"`
	Retries    int           `json:"retries"`
	Market     bool          `json:"market"`
	Preempted  int           `json:"preempted"`
	Cordoned   int           `json:"cordoned"`
	Remediated int           `json:"remediated"`
}

// ledgerJob is one job on its way through the replay.
type ledgerJob struct {
	trace jobTrace
	root  int
	req   api.SubmitRequest
	wf    *dag.Workflow
	fleet *cloud.Fleet
	sig   string
	fluct *cloud.FluctuationModel
	st    *api.JobStatus
	err   error
	done  chan struct{} // closed by the worker
}

// ledger is the replay's daemon-side state: its own Q-table cache,
// engine pool and telemetry aggregator, shared by the workers.
type ledger struct {
	in   *inputs
	t    *tracer
	agg  *telemetry.Aggregator
	pool *sim.Pool
	ctx  context.Context

	next    int       // the next job to replay
	scrapes []float64 // aggregator scrape times, ms

	mu       sync.Mutex
	cache    map[string]*rl.Table
	jobs     []*jobTrace
	probes   []*ledgerJob
	retained []*ledgerJob
}

func newLedger(ctx context.Context, in *inputs) *ledger {
	return &ledger{
		in: in, t: &tracer{epoch: time.Now()},
		agg: telemetry.NewAggregator(), pool: sim.NewPool(), ctx: ctx,
		cache: make(map[string]*rl.Table),
	}
}

// stepFunc runs one named layer call for a job in a span, unless the
// job has already failed; the call's error becomes the job's.
type stepFunc func(name string, fn func() error)

// stepper returns j's stepFunc for spans of t under parent.
func stepper(t *tracer, j *ledgerJob, parent int) stepFunc {
	return func(name string, fn func() error) {
		if j.err == nil {
			sp := t.begin(name, j.trace.Index, parent)
			j.err = fn()
			t.end(sp)
		}
	}
}

// submit runs the submit handler's steps for job i: decode, build,
// validate and signature.
func (l *ledger) submit(i int) *ledgerJob {
	j := &ledgerJob{trace: jobTrace{Index: i}, done: make(chan struct{})}
	body, err := l.in.body(i)
	if err != nil {
		j.err = err
		return j
	}
	j.root = l.t.begin("job", i, -1)
	step := stepper(l.t, j, j.root)
	step("api.decode", func() error { return json.NewDecoder(bytes.NewReader(body)).Decode(&j.req) })
	build := "api.workflow_build"
	if j.req.Workflow.Format == "dax" {
		build = "dax.read"
	}
	step(build, func() (err error) { j.wf, err = j.req.Workflow.Build(); return err })
	step("api.fleet_build", func() (err error) { j.fleet, err = j.req.Fleet.Build(); return err })
	if j.req.Plan != nil {
		step("api.plan_validate", func() error { return j.req.Plan.Plan.Validate(j.wf, j.fleet) })
	}
	step("api.signature", func() error { j.sig = api.StructureSignature(j.wf, j.fleet); return nil })
	return j
}

// work runs a worker's steps for j, as schedd's execute does: replay
// the submitted plan or learn one (warm from the cache on a hit), then
// execute it, over a market when asked.
func (l *ledger) work(j *ledgerJob) {
	defer close(j.done)
	if j.err != nil {
		return
	}
	req := &j.req
	run := l.t.begin("schedd.run", j.trace.Index, j.root)
	defer l.t.end(run)
	step := stepper(l.t, j, run)
	if req.Fluctuation {
		fm := cloud.DefaultFluctuation()
		j.fluct = &fm
	}
	id := fmt.Sprintf("j%06d", j.trace.Index+1)
	now := time.Now().UTC().Format(time.RFC3339Nano)
	j.st = &api.JobStatus{
		SchemaVersion: api.SchemaVersion, ID: id, State: api.StateDone,
		Workflow: j.wf.Name, Activations: j.wf.Len(), Fleet: j.fleet.Name, VMs: j.fleet.Len(),
		SubmittedAt: now, StartedAt: now,
	}
	if req.Plan != nil {
		step("sim.replay", func() error {
			res, err := l.replayPlan(j, req.Plan.Plan)
			if err != nil {
				return err
			}
			j.trace.ReplayEvents = res.Events
			j.st.Plan = api.NewPlanDocument(j.wf.Name, j.fleet.Name, res.Makespan, req.Plan.Plan)
			return nil
		})
	} else if res, hit := l.learn(j, step); j.err == nil {
		j.st.Plan = api.NewPlanDocument(j.wf.Name, j.fleet.Name, res.PlanMakespan, res.Plan)
		j.st.Episodes, j.st.LearningSeconds = len(res.Episodes), res.LearningTime.Seconds()
		j.st.CacheHit = hit
	}
	if !req.Execute || j.err != nil {
		return
	}
	if rep, prov := l.execute(j, step); j.err == nil {
		j.st.Provenance, j.st.ExecMakespanSeconds = prov, rep.Makespan
		if req.Market != nil {
			j.st.MarketCostUSD, j.st.Preemptions = rep.Cost, rep.Preempted
		}
	}
}

// replayPlan runs plan once on a pooled engine with j's workflow, fleet
// and fluctuation, as schedd replays a submitted plan.
func (l *ledger) replayPlan(j *ledgerJob, plan core.Plan) (*sim.Result, error) {
	eng, err := l.pool.Acquire(j.wf, j.fleet, &sched.Plan{PlanName: "submitted", Assign: plan.Map()},
		sim.Config{Seed: j.req.Seed, Fluct: j.fluct, Sink: l.agg, Ctx: l.ctx})
	if err != nil {
		return nil, err
	}
	defer l.pool.Put(eng)
	return eng.Run()
}

// learn runs schedd's learning steps for j: a copy of the cached
// Q-table on a hit, then core.NewLearner and Learn, whose table becomes
// the cache entry. hit reports a cache hit.
func (l *ledger) learn(j *ledgerJob, step stepFunc) (res *core.Result, hit bool) {
	counter := &episodeCounter{}
	opts := []core.Option{
		core.WithSeed(j.req.Seed),
		core.WithSink(telemetry.Multi(l.agg, counter)),
		core.WithEnginePool(l.pool),
		core.WithContext(l.ctx),
	}
	l.mu.Lock()
	cached := l.cache[j.sig]
	l.mu.Unlock()
	if cached != nil {
		step("rl.table_copy", func() error {
			opts = append(opts, core.WithTable(cached.Copy(rand.New(rand.NewSource(j.req.Seed)))))
			return nil
		})
		hit = true
	}
	var learner *core.Learner
	step("core.new_learner", func() (err error) {
		learner, err = core.NewLearner(core.Config{
			Workflow: j.wf,
			Fleet:    j.fleet,
			Params:   core.DefaultParams(),
			Episodes: j.req.Learn.Episodes,
			Sim:      sim.Config{Fluct: j.fluct},
		}, opts...)
		return err
	})
	step("core.learn", func() (err error) {
		if res, err = learner.Learn(); err != nil {
			return err
		}
		l.mu.Lock()
		l.cache[j.sig] = res.Table
		l.mu.Unlock()
		j.trace.LearningTime = res.LearningTime
		return nil
	})
	j.trace.Episodes, j.trace.Decisions, j.trace.Events = counter.episodes, counter.decisions, counter.events
	return res, hit
}

// execute runs j's plan on an in-process exec master as schedd does,
// over the requested market if any, and keeps the report's counts in
// j's trace.
func (l *ledger) execute(j *ledgerJob, step stepFunc) (rep *exec.Report, prov []provenance.Execution) {
	store := provenance.NewStore()
	var tr exec.Transport = &exec.InProc{
		Workers: min(j.fleet.Len(), 8),
		Runner:  exec.SimRunner{Fluct: j.fluct, Seed: j.req.Seed + 2000},
	}
	opts := []exec.Option{exec.WithStore(store, j.st.ID), exec.WithSink(l.agg)}
	if j.req.Market != nil {
		step("market.generate", func() error {
			// schedd's default trace seed and horizon.
			rg, ok := market.RegimeByName(j.req.Market.Regime)
			if !ok {
				return fmt.Errorf("unknown market regime %q", j.req.Market.Regime)
			}
			trc, err := market.Generate(market.DefaultCatalogue(), j.fleet, rg, j.req.Seed+4000, 3600)
			if err != nil {
				return err
			}
			pb, err := market.NewPlayback(trc, nil)
			if err != nil {
				return err
			}
			tr = exec.NewMarketFeed(tr, pb)
			opts = append(opts, exec.WithMarket(pb))
			return nil
		})
	}
	step("exec.run", func() error {
		start := time.Now()
		m, err := exec.New(j.wf, j.fleet, j.st.Plan.Plan, tr, opts...)
		if err != nil {
			return err
		}
		if rep, err = m.Run(l.ctx); err != nil {
			return err
		}
		prov = store.All()
		j.trace.Exec = &execCounts{
			Wall: time.Since(start), Tasks: rep.Tasks, Attempts: rep.Attempts, Retries: rep.Retries,
			Market: j.req.Market != nil, Preempted: rep.Preempted, Cordoned: rep.Cordoned, Remediated: rep.Remediated,
		}
		return nil
	})
	return rep, prov
}

// finish runs the status step for a worked job: the daemon's encode of
// the finished status, then the client's decode and output check.
func (l *ledger) finish(j *ledgerJob) {
	if j.err != nil {
		return
	}
	t, i := l.t, j.trace.Index
	j.st.FinishedAt = time.Now().UTC().Format(time.RFC3339Nano)
	var buf bytes.Buffer
	sp := t.begin("api.status_encode", i, j.root)
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	j.err = enc.Encode(j.st)
	t.end(sp)
	if j.err == nil {
		sp = t.begin("client.status_check", i, j.root)
		var st api.JobStatus
		if j.err = json.Unmarshal(buf.Bytes(), &st); j.err == nil {
			j.err = check(l.in.w, l.in.structOf(i), &st)
		}
		t.end(sp)
	}
	t.end(j.root)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs = append(l.jobs, &j.trace)
	if len(l.retained) == retainJobs {
		l.retained = l.retained[1:]
	}
	l.retained = append(l.retained, j)
	if j.err == nil && len(l.probes) < probes && i >= l.in.warmups() {
		l.probes = append(l.probes, j)
	}
}

// replay runs the part [from, to) of the workload: the open-loop jobs
// due then, or the closed-loop clients for that long. The first call
// runs the set-up jobs first, one at a time. It returns the first job
// error.
func (l *ledger) replay(from, to time.Duration) error {
	var (
		errMu    sync.Mutex
		firstErr error
	)
	settle := func(j *ledgerJob) {
		if j.err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("replaying job %d: %w", j.trace.Index, j.err)
			}
			errMu.Unlock()
		}
	}
	first := l.in.warmups()
	for ; l.next < first; l.next++ {
		j := l.submit(l.next)
		l.work(j)
		l.finish(j)
		settle(j)
	}
	if firstErr != nil {
		return firstErr
	}

	queue := make(chan *ledgerJob, replayQueue)
	var workers sync.WaitGroup
	for k := 0; k < replayWorkers; k++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range queue {
				l.work(j)
			}
		}()
	}
	start := time.Now()
	if w := l.in.w; w.rate > 0 {
		// Open loop: the submitter sends each job at its due time; the
		// poller finishes them in submission order.
		sent := make(chan *ledgerJob, len(l.in.due))
		var poller sync.WaitGroup
		poller.Add(1)
		go func() {
			defer poller.Done()
			for j := range sent {
				<-j.done
				l.finish(j)
				settle(j)
			}
		}()
		for k, d := range l.in.due {
			if d < from || d >= to {
				continue
			}
			sleepUntil(start.Add(d - from))
			j := l.submit(first + k)
			if j.err != nil {
				close(j.done)
			} else {
				queue <- j
			}
			sent <- j
		}
		close(sent)
		poller.Wait()
	} else {
		// Closed loop: each client sends its next job once its last
		// one is finished.
		var (
			mu      sync.Mutex
			clients sync.WaitGroup
		)
		for k := 0; k < w.clients; k++ {
			clients.Add(1)
			go func() {
				defer clients.Done()
				for time.Since(start) < to-from {
					mu.Lock()
					i := l.next
					l.next++
					mu.Unlock()
					j := l.submit(i)
					if j.err == nil {
						queue <- j
						<-j.done
						l.finish(j)
					}
					settle(j)
					if j.err != nil {
						return
					}
				}
			}()
		}
		clients.Wait()
	}
	close(queue)
	workers.Wait()
	return firstErr
}

// probe times, once the replay is over and for the first probes
// measured jobs of a learning workload, one reset run of the job's
// learned plan on the bare simulator, with the job's workflow, fleet
// and fluctuation: sim.episode_us, the simulator's share of a learning
// episode.
func (l *ledger) probe() error {
	if l.in.w.replay {
		return nil
	}
	for _, j := range l.probes {
		cfg := sim.Config{Seed: j.req.Seed, Fluct: j.fluct, Sink: l.agg, Ctx: l.ctx, SkipPlan: true}
		eng, err := sim.NewEngine(j.wf, j.fleet, &sched.Plan{PlanName: "probe", Assign: j.st.Plan.Plan.Map()}, cfg)
		if err != nil {
			return err
		}
		if _, err := eng.Run(); err != nil {
			return err
		}
		if err := eng.Reset(cfg); err != nil {
			return err
		}
		start := time.Now()
		if _, err := eng.Run(); err != nil {
			return fmt.Errorf("probing job %d: %w", j.trace.Index, err)
		}
		j.trace.SimEpisode = time.Since(start)
	}
	return nil
}

// layerSpans are the layer calls whose median self time is a
// per-layer metric, <name>_ms. Each is timed on the workloads whose
// pipeline makes the call, and reads 0 on the others.
var layerSpans = []string{
	"api.decode", "api.workflow_build", "dax.read", "api.fleet_build", "api.plan_validate",
	"api.signature", "api.status_encode", "rl.table_copy", "core.new_learner",
	"sim.replay", "exec.run", "market.generate",
}

// scrapedReplay replays [from, to) of the workload while the
// aggregator is scraped on the daemon run's cadence, as schedd's
// /metrics is.
func (l *ledger) scrapedReplay(from, to time.Duration) error {
	stop := every(scrapeEvery, func() (time.Duration, error) {
		t0 := time.Now()
		err := l.agg.Snapshot().WriteProm(io.Discard)
		return time.Since(t0), err
	})
	err := l.replay(from, to)
	l.scrapes = append(l.scrapes, stop()...)
	return err
}

// ledgerMetrics runs the probe once l's replay is over and adds the
// layer self times and counts to v, which already holds the daemon
// run's figures. Only jobs after the set-up ones count.
func ledgerMetrics(l *ledger, v map[string]float64, rec *record) error {
	in := l.in
	if err := l.probe(); err != nil {
		return err
	}

	first := in.warmups()
	spans := l.t.spans
	children := childTime(spans)
	self := map[string][]float64{}
	covered := map[int]time.Duration{} // job → time inside schedd.run that layer spans cover
	learnSpan := map[int]time.Duration{}
	var work time.Duration // time in the jobs' own steps, excluding queueing
	nspans := 0
	for k, s := range spans {
		if s.Job < first {
			continue
		}
		nspans++
		d := s.End - s.Start
		self[s.Name] = append(self[s.Name], ms(d-children[k]))
		if s.Parent >= 0 {
			switch spans[s.Parent].Name {
			case "schedd.run":
				covered[s.Job] += d
			case "job":
				work += d
			}
		}
		if s.Name == "core.learn" {
			learnSpan[s.Job] = d
		}
	}
	for _, name := range layerSpans {
		v[name+"_ms"] = quantile(self[name], 0.5)
	}

	var learn, episode, extract, simEp, cover []float64
	var episodes, decisions, events, replayEvents int64
	var tasks, attempts int
	var execWall time.Duration
	var retries, preempted, cordoned, remediated []float64
	for _, jt := range l.jobs {
		if jt.Index < first {
			continue
		}
		cover = append(cover, ms(covered[jt.Index]))
		if jt.Episodes > 0 {
			learn = append(learn, ms(jt.LearningTime))
			episode = append(episode, float64(jt.LearningTime)/float64(jt.Episodes)/1e3)
			extract = append(extract, ms(learnSpan[jt.Index]-jt.LearningTime))
			episodes += int64(jt.Episodes)
			decisions += jt.Decisions
			events += jt.Events
		}
		if jt.SimEpisode > 0 {
			simEp = append(simEp, float64(jt.SimEpisode)/1e3)
		}
		replayEvents += jt.ReplayEvents
		if e := jt.Exec; e != nil {
			tasks += e.Tasks
			attempts += e.Attempts
			execWall += e.Wall
			retries = append(retries, float64(e.Retries))
			if e.Market {
				preempted = append(preempted, float64(e.Preempted))
				cordoned = append(cordoned, float64(e.Cordoned))
				remediated = append(remediated, float64(e.Remediated))
			}
		}
	}
	jobs := float64(len(cover))
	if jobs == 0 {
		return fmt.Errorf("the replay finished no measured job")
	}
	v["core.learn_ms"] = quantile(learn, 0.5)
	v["core.episode_us"] = quantile(episode, 0.5)
	v["core.extract_ms"] = quantile(extract, 0.5)
	v["core.decisions_per_episode"] = ratio(float64(decisions), float64(episodes))
	v["sim.episode_us"] = quantile(simEp, 0.5)
	// Derived, not timed: the learning episode's cost beyond the bare
	// simulator, per decision.
	v["core.decide_ns"] = ratio((v["core.episode_us"]-v["sim.episode_us"])*1e3, v["core.decisions_per_episode"])
	if in.w.replay {
		v["sim.events_per_episode"] = float64(replayEvents) / jobs
	} else {
		v["sim.events_per_episode"] = ratio(float64(events), float64(episodes))
	}
	v["exec.tasks_s"] = ratio(float64(tasks), execWall.Seconds())
	v["exec.attempts_per_task"] = ratio(float64(attempts), float64(tasks))
	v["exec.retries_per_job"] = mean(retries)
	v["market.preempted_per_job"] = mean(preempted)
	v["market.cordoned_per_job"] = mean(cordoned)
	v["market.remediated_per_job"] = mean(remediated)
	v["telemetry.snapshot_ms"] = quantile(l.scrapes, 0.5)
	// Learning is timed both in the daemon and in the replay
	// (JobStatus.learning_seconds and Result.LearningTime, over the same
	// inputs). The ratio of the two medians shows how far the replay's
	// speed strayed from the daemon's; it is 0 where nothing is learnt.
	if d, r := v["schedd.learning_p50_ms"], quantile(learn, 0.5); d > 0 && r > 0 {
		v["trace.speed_ratio"] = d / r
	}
	// Signed: below zero, the replayed layers took longer than the
	// daemon's runs did.
	if run := v["schedd.run_p50_ms"]; run > 0 {
		v["trace.unattributed_ratio"] = (run - quantile(cover, 0.5)) / run
	}
	// Tracing costs each job its spans' bookkeeping.
	v["trace.overhead_ratio"] = ratio(float64(nspans)*float64(spanCost()), float64(work))
	rec.Replay = &replayRecord{Jobs: l.jobs, Spans: spans, ScrapesMS: l.scrapes}
	return nil
}

// childTime returns, for each span, the time its child spans cover.
func childTime(spans []span) []time.Duration {
	children := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	return children
}
