// Command perfbench is the end-to-end benchmark of the schedd daemon.
// It starts a freshly built schedd, sets it up, drives one seeded
// traffic mix at it over loopback for a fixed window, checks every
// job's output, and prints the metrics, one per line with its unit,
// followed by a one-line JSON result. With -trace 1 it instead
// reports the per-layer metrics: daemon-side figures from job stamps
// and /metrics, and layer self times from replaying the same jobs in
// process, in parts interleaved with the daemon's window, with a span
// around every layer call.
//
// Usage (from the repository root, after building both binaries; see
// perfbench/README.md and perfbench/run.py):
//
//	perfbench -workload replay-exec -seed 1 -seconds 50 -trace 0 -schedd .bench_build/bin/schedd
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setups is the number of times a run sets a daemon up; setup_s is
// their median, and the last daemon is the one measured.
const setups = 3

type config struct {
	workload *workload
	seed     int64
	window   time.Duration
	trace    bool
	schedd   string
	out      string
}

func main() {
	name := flag.String("workload", "learn-large", "traffic mix: learn-large or replay-exec")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 50, "measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	schedd := flag.String("schedd", filepath.Join(".bench_build", "bin", "schedd"), "schedd binary under test")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the raw samples of each run")
	flag.Parse()

	if err := func() error {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
			return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
		}
		// The benchmark keeps to the machine's budget of two OS threads.
		runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
		return run(config{
			workload: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
			trace: *traceFlag == 1, schedd: *schedd, out: *out,
		})
	}(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything a run measured, written out for recomputation.
type record struct {
	Stamp     stamp              `json:"stamp"`
	Result    result             `json:"result"`
	SetupS    []float64          `json:"setup_s"`
	ScrapesMS []float64          `json:"scrapes_ms"`
	Samples   []*sample          `json:"samples"`
	Replay    *replayRecord      `json:"replay,omitempty"`
	Values    map[string]float64 `json:"values"`
}

type replayRecord struct {
	Jobs      []*jobTrace `json:"jobs"`
	Spans     []span      `json:"spans"`
	ScrapesMS []float64   `json:"scrapes_ms"`
}

func run(cfg config) error {
	w := cfg.workload
	rec := &record{Stamp: newStamp(cfg.schedd)}
	rec.Stamp.Workload, rec.Stamp.Seed, rec.Stamp.Trace = w.name, cfg.seed, cfg.trace
	rec.Stamp.Seconds = int(cfg.window / time.Second)

	// Set-up: exec the daemon, make the inputs, wait for health, and
	// run one job per structure so the Q-table cache is filled.
	var d *daemon
	var c *client
	var in *inputs
	for k := 0; k < setups; k++ {
		if d != nil {
			c.close()
			if err := d.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.schedd); err != nil {
			return err
		}
		c = newClient(d.addr)
		if in, err = generate(w, cfg.seed, cfg.window); err != nil {
			d.stop()
			return err
		}
		err = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := c.waitHealthy(ctx); err != nil {
				return err
			}
			return runJobs(c, in, 0, in.warmups())
		}()
		if err != nil {
			d.stop()
			return err
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}

	var l *ledger
	if cfg.trace {
		l = newLedger(context.Background(), in)
	}
	v, err := measure(cfg, d, c, in, l, rec)
	c.close()
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping schedd: %w", stopErr)
	}
	if err != nil {
		return err
	}
	v["setup_s"] = quantile(rec.SetupS, 0.5)

	names := endToEnd
	if cfg.trace {
		names = perLayer
		if err := ledgerMetrics(l, v, rec); err != nil {
			return err
		}
	}
	res := verdict(rec.Samples)
	for _, m := range names {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	rec.Result, rec.Values = res, v
	if err := writeRecord(cfg, rec); err != nil {
		return err
	}

	fmt.Printf("perfbench %s seed=%d window=%s trace=%v git=%s go=%s gomaxprocs=%d nproc=%d cpu=%q schedd=%v\n",
		w.name, cfg.seed, cfg.window, cfg.trace, rec.Stamp.GitSHA, rec.Stamp.GoVersion,
		rec.Stamp.GOMAXPROCS, rec.Stamp.NumCPU, rec.Stamp.CPUModel, rec.Stamp.DaemonFlags)
	fmt.Printf("%-32s %d jobs, %d failed (%s)\n", "attempted", res.Attempted, res.Failed, failureSummary(rec.Samples))
	for _, m := range names {
		fmt.Printf("%-32s %.6g %s\n", m.name, v[m.name], m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// verdict counts a run's measured jobs. A job that failed in any way
// (rejected, ended failed or canceled, timed out, unreadable, or with
// a wrong output) makes the run incorrect: every job must finish done
// and pass its checks.
func verdict(samples []*sample) result {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, s := range samples {
		res.Attempted++
		if s.Kind != "" {
			res.Failed++
			res.Correct = false
		}
	}
	return res
}

func failureSummary(samples []*sample) string {
	kinds := map[string]int{}
	first := ""
	for _, s := range samples {
		if s.Kind != "" {
			kinds[s.Kind]++
			if first == "" {
				first = s.Err
			}
		}
	}
	if len(kinds) == 0 {
		return "none"
	}
	return fmt.Sprintf("%v; first: %s", kinds, first)
}

func writeRecord(cfg config, rec *record) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d-%s.json",
		cfg.workload.name, cfg.seed, trace, rec.Stamp.Started.Format("20060102T150405.000")))
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceSegments is the number of parts a traced run cuts its window
// into. After each part, while the daemon idles, the in-process replay
// runs a part of its own window, so that the two sample the host at the
// same times; this host's speed wanders within seconds.
const traceSegments = 5

// measure drives the measured window against the set-up daemon and
// returns every metric the daemon run yields. With a ledger l (a traced
// run), it interleaves the window with l's replay.
func measure(cfg config, d *daemon, c *client, in *inputs, l *ledger, rec *record) (map[string]float64, error) {
	w := cfg.workload
	before, _, err := c.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostTicks()
	if err != nil {
		return nil, err
	}

	segments := 1
	if l != nil {
		segments = traceSegments
	}
	// busy is the time the daemon had work: from each segment's start
	// to its last finish, so a daemon that falls behind loses goodput.
	var busy time.Duration
	first, next := in.warmups(), in.warmups()
	for k := 0; k < segments; k++ {
		from := cfg.window * time.Duration(k) / time.Duration(segments)
		to := cfg.window * time.Duration(k+1) / time.Duration(segments)
		stopScrapes := every(scrapeEvery, func() (time.Duration, error) {
			_, d, err := c.scrape()
			return d, err
		})
		// A short lead lets the submitter make the first body before
		// its due time.
		start := time.Now().Add(20 * time.Millisecond)
		var samples []*sample
		if w.rate > 0 {
			samples = runOpen(c, in, first, start, from, to)
		} else {
			samples = runClosed(c, in, next, start, to-from)
			next += len(samples)
		}
		rec.ScrapesMS = append(rec.ScrapesMS, stopScrapes()...)
		rec.Samples = append(rec.Samples, samples...)
		last := start
		for _, s := range samples {
			if s.Kind == "" && s.Finished.After(last) {
				last = s.Finished
			}
		}
		busy += last.Sub(start)
		if l != nil {
			chunk := func(k int) time.Duration { return replayWindow * time.Duration(k) / time.Duration(segments) }
			if err := l.scrapedReplay(chunk(k), chunk(k+1)); err != nil {
				return nil, err
			}
		}
	}

	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	steal1, total1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	after, _, err := c.scrape()
	if err != nil {
		return nil, err
	}

	var lat, submit, late, qwait, runT, learnT, rtt, bytes, plan, execM, cost, polls []float64
	good, done, episodes := 0, 0, 0
	for _, s := range rec.Samples {
		if s.ID != "" {
			submit = append(submit, ms(s.Submit))
			late = append(late, ms(s.Sent.Sub(s.Due)))
			polls = append(polls, float64(s.Polls))
		}
		if s.Kind != "" {
			continue
		}
		done++
		l := s.latency()
		lat = append(lat, ms(l))
		if l <= w.limit {
			good++
		}
		episodes += s.Episodes
		if s.Episodes > 0 {
			learnT = append(learnT, s.LearningS*1e3)
		}
		qwait = append(qwait, ms(s.Started.Sub(s.Submitted)))
		runT = append(runT, ms(s.Finished.Sub(s.Started)))
		rtt = append(rtt, ms(s.StatusRTT))
		bytes = append(bytes, float64(s.StatusBytes))
		plan = append(plan, s.PlanMakespan)
		execM = append(execM, s.ExecMakespan)
		cost = append(cost, s.Cost)
	}
	if done == 0 {
		return nil, fmt.Errorf("no job finished: %s", failureSummary(rec.Samples))
	}
	span := busy.Seconds()
	delta := func(name string) float64 { return after[name] - before[name] }
	freelist := func(m map[string]float64) float64 {
		return m["reassign_des_freelist_hit_rate"] * m["reassign_des_scheduled_total"]
	}
	failed := len(rec.Samples) - done
	return map[string]float64{
		"latency_p50_ms":  quantile(lat, 0.5),
		"latency_p95_ms":  quantile(lat, 0.95),
		"latency_p99_ms":  quantile(lat, 0.99),
		"goodput_jobs_s":  float64(good) / span,
		"submit_p50_ms":   quantile(submit, 0.5),
		"submit_p99_ms":   quantile(submit, 0.99),
		"cpu_ms_per_job":  ms(cpu1-cpu0) / float64(done),
		"rss_peak_mb":     rss,
		"plan_makespan_s": mean(plan),
		"scrape_p50_ms":   quantile(rec.ScrapesMS, 0.5),

		"fail_ratio":      float64(failed) / float64(len(rec.Samples)),
		"episodes_s":      float64(episodes) / span,
		"exec_makespan_s": mean(execM),
		"cost_usd":        mean(cost),

		"schedd.queue_wait_p50_ms": quantile(qwait, 0.5),
		"schedd.queue_wait_p99_ms": quantile(qwait, 0.99),
		"schedd.run_p50_ms":        quantile(runT, 0.5),
		// JobStatus.learning_seconds; the traced run's speed yardstick.
		"schedd.learning_p50_ms": quantile(learnT, 0.5),
		"schedd.cache_hit_ratio": ratio(delta("schedd_qtable_cache_hits_total"),
			delta("schedd_qtable_cache_hits_total")+delta("schedd_qtable_cache_misses_total")),
		"schedd.engine_reuse_ratio": ratio(delta("schedd_engine_pool_reused_total"),
			delta("schedd_engine_pool_reused_total")+delta("schedd_engine_pool_fresh_total")),
		"api.status_rtt_p50_ms":       quantile(rtt, 0.5),
		"api.status_bytes":            mean(bytes),
		"des.freelist_hit_ratio":      ratio(freelist(after)-freelist(before), delta("reassign_des_scheduled_total")),
		"des.max_queue_depth":         after["reassign_des_queue_depth_max"],
		"telemetry.episodes_retained": after["reassign_episodes_total"],
		"driver.late_p99_ms":          quantile(late, 0.99),
		"driver.polls_per_job":        mean(polls),
		"host.steal_ratio":            ratio(float64(steal1-steal0), float64(total1-total0)),
	}, nil
}
